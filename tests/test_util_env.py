"""The one spelling table behind REPRO_OBS / REPRO_PROBES / REPRO_SANITIZE."""

import pytest

from repro.analysis.sanitizer import SANITIZE_ENV, sanitize_enabled
from repro.obs.collect import OBS_ENV, obs_enabled
from repro.obs.probe import PROBES_ENV, probes_enabled
from repro.util.env import env_flag

OFF = ["0", "false", "off", "no", "FALSE", "Off", " no ", "\t0\n"]
ON = ["1", "true", "on", "yes", "2", " TRUE "]
UNSET = [None, "", "   "]


def _set(monkeypatch, name, value):
    if value is None:
        monkeypatch.delenv(name, raising=False)
    else:
        monkeypatch.setenv(name, value)


@pytest.mark.parametrize("default", [True, False])
def test_spellings(default, monkeypatch):
    for value in OFF:
        _set(monkeypatch, "REPRO_TEST_FLAG", value)
        assert env_flag("REPRO_TEST_FLAG", default) is False, value
    for value in ON:
        _set(monkeypatch, "REPRO_TEST_FLAG", value)
        assert env_flag("REPRO_TEST_FLAG", default) is True, value
    for value in UNSET:
        _set(monkeypatch, "REPRO_TEST_FLAG", value)
        assert env_flag("REPRO_TEST_FLAG", default) is default, value


@pytest.mark.parametrize(
    "name, enabled, default",
    [(OBS_ENV, obs_enabled, True), (PROBES_ENV, probes_enabled, False),
     (SANITIZE_ENV, sanitize_enabled, False)],
)
def test_the_three_switches_share_the_parser_and_differ_only_in_default(
    name, enabled, default, monkeypatch
):
    # The layers that cost (series, runtime shadows) are opt-in; the one
    # that is free (counters + spans) is opt-out.
    for value in UNSET:
        _set(monkeypatch, name, value)
        assert enabled() is default
    for value, expected in [("off", False), (" No ", False), ("1", True), ("on", True)]:
        _set(monkeypatch, name, value)
        assert enabled() is expected
