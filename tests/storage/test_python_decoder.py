"""The storage batteries again, with the native decode kernel turned off.

Every test of ``test_rlz_store.py``, ``test_windowed_decode.py`` and
``test_container_integrity.py`` runs a second time here through the Python
decoder, which is what a process without a C compiler serves with: the same
bytes, the same ``decoded_bytes`` charges and the same typed errors.
"""

from __future__ import annotations

import pytest

from test_container_integrity import *  # noqa: F401,F403
from test_rlz_store import *  # noqa: F401,F403
from test_windowed_decode import *  # noqa: F401,F403


@pytest.fixture(scope="module", autouse=True)
def _python_decoder_only(python_decoder):
    yield


def test_this_module_decodes_with_python(store):
    assert store.decode_kernel == "python"
