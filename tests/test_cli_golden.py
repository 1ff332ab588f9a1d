"""The Tier-1 part of the command line's byte-identity golden
(cli_golden.py): the bodies of TIER1_GROUPS' cases against the committed
ones, and the whole matrix's case list against the committed records."""

import cli_golden


def test_cli_golden_bodies_of_the_tier1_groups():
    assert cli_golden.differences(cli_golden.TIER1_GROUPS) == []


def test_cli_golden_records_every_case_of_the_matrix():
    # the ids and argvs alone, nothing run: a case added to or dropped from
    # the matrix without --write fails here
    want = {cid: argv for _, cases in cli_golden.matrix() for cid, argv in cases}
    assert {cid: rec["argv"] for cid, rec in cli_golden.load().items()} == want
