"""`repro request submit` argument errors name the flag and the bad text.

The query is parsed before any connection is made, so these run without
a server: a malformed ``--coords`` pair or ``--range`` tuple must exit 2
with a message that says which flag and which text were wrong.
"""

from __future__ import annotations

import pytest

from repro.cli import main

#: a port nothing listens on; parsing fails before the client connects
PORT = "1"


@pytest.mark.parametrize(
    "flag,text,bad",
    [
        ("--coords", "0,0;1,1,2", "'1,1,2'"),
        ("--coords", "0,0;1", "'1'"),
        ("--coords", "0,0;a,1", "'a,1'"),
        ("--coords", "0,0;", "''"),
        ("--range", "0,0,2,2", "'0,0,2,2'"),
        ("--range", "0,0,2,2,8,1", "'0,0,2,2,8,1'"),
        ("--range", "0,0,x,2,8", "'0,0,x,2,8'"),
    ],
)
def test_malformed_query_exits_2_naming_flag_and_text(capsys, flag, text, bad):
    code = main(["request", "submit", flag, text, "--port", PORT])
    err = capsys.readouterr().err
    assert code == 2
    assert flag in err
    assert bad in err
    assert "unpack" not in err


def test_message_states_the_expected_shape(capsys):
    assert main(["request", "submit", "--range", "1,2", "--port", PORT]) == 2
    err = capsys.readouterr().err
    assert err.strip() == (
        "repro request: --range: expected 5 comma-separated integers, "
        "got '1,2'"
    )
