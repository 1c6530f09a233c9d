"""Suite-wide collection gates.

The ``identity``-marked tests (the full cold-vs-incremental
differential matrix in ``tests/identity``) re-run real study slices
across every backend x transport combination, which is nightly-scale
work. They are collected but skipped by default; opt in with::

    pytest --identity-full            # whole suite + full matrix
    pytest -m identity                # the matrix alone

The one-configuration smoke test in ``tests/identity`` is unmarked and
always runs, so tier-1 still exercises the byte-identity contract.

The ``scale``-marked tests (``tests/scale``) exercise the
dictionary-encoded data plane at 100k+ rows — minutes, not seconds —
and are gated the same way::

    pytest --scale                    # whole suite + scale tests
    pytest -m scale                   # the scale tests alone
"""

import pytest

#: marker name -> (opt-in flag, skip reason)
_GATED_MARKERS = {
    "identity": (
        "--identity-full",
        "full identity matrix; opt in with --identity-full or -m identity",
    ),
    "scale": (
        "--scale",
        "100k-row scale tests; opt in with --scale or -m scale",
    ),
}


def pytest_addoption(parser):
    parser.addoption(
        "--identity-full",
        action="store_true",
        default=False,
        help="run the full incremental-identity differential matrix "
        "(every backend x transport x error type; nightly-scale)",
    )
    parser.addoption(
        "--scale",
        action="store_true",
        default=False,
        help="run the 100k-row-plus scale tests of the encoded data plane",
    )


def pytest_collection_modifyitems(config, items):
    markexpr = config.getoption("markexpr", "") or ""
    for marker, (flag, reason) in _GATED_MARKERS.items():
        if config.getoption(flag) or marker in markexpr:
            continue
        skip = pytest.mark.skip(reason=reason)
        for item in items:
            if item.get_closest_marker(marker) is not None:
                item.add_marker(skip)


@pytest.fixture(scope="session")
def rq2_stores(tmp_path_factory):
    """Sharded copies of the stores the rendered RQ2 goldens pin, by name.

    Migrating the committed legacy study store takes about a second, so
    the copies are made once per session and shared read-only.
    """
    from tests.identity.golden_report.regenerate import SOURCES, open_copy

    return {
        name: open_copy(source, tmp_path_factory.mktemp(name))
        for name, source in SOURCES.items()
    }
