"""Shared fixtures: small, fast testbed instances."""

from pathlib import Path

import pytest

from repro.blockdev import profiles
from repro.blockdev.bus import SCSIBus
from repro.core.highlight import HighLightConfig, HighLightFS
from repro.core.migrator import Migrator
from repro.footprint.robot import JukeboxFootprint
from repro.lfs.filesystem import LFS, LFSConfig
from repro.sim.actor import Actor
from repro.util.units import MB


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="regenerate golden trace/metric files instead of comparing")


@pytest.fixture
def update_golden(request):
    return request.config.getoption("--update-golden")


# -- the production tree, analysed once per session --------------------------
#
# A whole-tree analysis of src/repro takes seconds; the cleanliness,
# suppression-budget and program-index tests all read the same facts,
# so they share one run instead of each re-analysing the tree.  Tests
# whose contract is about a run itself (determinism, overlapping paths,
# the time budget) still make their own.

SRC_REPRO = Path(__file__).parent.parent / "src" / "repro"


@pytest.fixture(scope="session")
def src_result():
    """One ``run_paths([src/repro])`` result with the full rule suite."""
    from repro.analysis import run_paths
    return run_paths([SRC_REPRO])


@pytest.fixture(scope="session")
def src_files():
    """Every parsed module under src/repro, in collection order."""
    from repro.analysis import Analyzer, default_rules
    return Analyzer(default_rules()).load([str(SRC_REPRO)])


@pytest.fixture(scope="session")
def src_index(src_files):
    """The whole-program index over :func:`src_files`."""
    from repro.analysis.program.index import ProgramIndex
    return ProgramIndex.build(src_files)


@pytest.fixture(autouse=True)
def _fresh_observability():
    """Every test starts from zeroed metrics and an empty trace."""
    from repro import obs
    obs.reset()
    yield


@pytest.fixture(autouse=True)
def _borrow_sanitizer():
    """With ``REPRO_SANITIZE=borrow`` in the environment, every test runs
    with the runtime borrow sanitizer armed (CI runs the crash-consistency
    and extent suites this way); otherwise this is a no-op."""
    from repro.analysis import sanitize
    san = sanitize.install_from_env()
    yield
    if san is not None:
        sanitize.uninstall()


@pytest.fixture
def app():
    return Actor("app")


@pytest.fixture
def small_disk():
    return profiles.make_disk(profiles.RZ57, capacity_bytes=64 * MB)


@pytest.fixture
def lfs(small_disk, app):
    return LFS.mkfs(small_disk, LFSConfig(), actor=app)


class HLBed:
    """A compact HighLight testbed for integration tests."""

    def __init__(self, disk_bytes=96 * MB, n_platters=4,
                 platter_bytes=40 * MB, config=None, **migrator_kwargs):
        self.bus = SCSIBus()
        self.disk = profiles.make_disk(profiles.RZ57, bus=self.bus,
                                       capacity_bytes=disk_bytes)
        self.jukebox = profiles.make_hp6300(
            n_platters=n_platters, bus=self.bus,
            effective_platter_bytes=platter_bytes)
        self.footprint = JukeboxFootprint(self.jukebox)
        self.app = Actor("app")
        self.fs = HighLightFS.mkfs_highlight(
            self.disk, self.footprint, config or HighLightConfig(),
            actor=self.app)
        self.migrator = Migrator(self.fs, **migrator_kwargs)

    def remount(self):
        """Crash: rebuild everything reachable from the media."""
        fs = HighLightFS.mount_highlight(self.disk, self.footprint)
        self.fs = fs
        self.migrator = Migrator(fs, **{})
        return fs


@pytest.fixture
def hl():
    return HLBed()
