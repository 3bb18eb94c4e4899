"""Config fields must be documented: every public policy knob in
docs/API.md.

A config dataclass *is* the product surface — a field that does not
appear in the API reference is a knob nobody can discover.  This gate
walks the fields of every frozen policy object and greps the reference
for each name, so adding a knob without documenting it fails CI with
the missing name in the assertion message.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from repro.net.server import ServerConfig
from repro.online.config import OnlineConfig
from repro.service.config import ServiceConfig

API_MD = Path(__file__).resolve().parent.parent / "docs" / "API.md"

CONFIGS = [ServiceConfig, OnlineConfig, ServerConfig]


@pytest.fixture(scope="module")
def api_text():
    return API_MD.read_text(encoding="utf-8")


@pytest.mark.parametrize("cls", CONFIGS, ids=lambda c: c.__name__)
def test_every_field_appears_in_api_md(cls, api_text):
    missing = [
        f.name
        for f in dataclasses.fields(cls)
        if f.name not in api_text
    ]
    assert not missing, (
        f"{cls.__name__} fields undocumented in docs/API.md: {missing} "
        f"— document each knob where the class is described"
    )


@pytest.mark.parametrize("cls", CONFIGS, ids=lambda c: c.__name__)
def test_class_itself_is_named_in_api_md(cls, api_text):
    assert cls.__name__ in api_text
