"""RC109 must fire: core-layer code importing its consumers."""
# repro-check: module=repro.core.leaky

from repro.serve.reload import SnapshotManager


def lookup(manager: SnapshotManager, prefix):
    return manager.snapshot()[1].evidence.get(prefix)


def render(report):
    from repro.cli import main  # deferred imports still count

    return main(report)
