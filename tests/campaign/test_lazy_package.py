"""``repro.campaign`` resolves its public names lazily.

The CLI reads :mod:`repro.campaign.spec` on every command; the package
init must not drag the worker pool (``concurrent.futures.process`` and
``multiprocessing``) in with it.  Checked in a fresh interpreter, since
this test process has long imported both.
"""

import os
import subprocess
import sys

import pytest

import repro
import repro.campaign as campaign
from repro.campaign.orchestrator import Campaign
from repro.campaign.spec import spec_key

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def test_cli_import_loads_no_process_pool():
    code = (
        "import sys\n"
        "import repro.cli\n"
        "loaded = [name for name in ('concurrent.futures.process', "
        "'multiprocessing') if name in sys.modules]\n"
        "print(','.join(loaded))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert completed.stdout.strip() == ""


def test_public_names_resolve_to_their_modules():
    assert campaign.Campaign is Campaign
    assert campaign.spec_key is spec_key
    for name in campaign.__all__:
        assert getattr(campaign, name) is not None


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="NoSuchName"):
        getattr(campaign, "NoSuchName")
