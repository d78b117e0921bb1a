"""RC109 must stay silent: serve may import core, net, and itself."""
# repro-check: module=repro.serve.api

from typing import TYPE_CHECKING

from repro import __doc__ as _package_doc  # package root: always allowed
from repro.core.context import AnalysisContext
from repro.core.leaseindex import LeaseIndex
from repro.net import parse_prefix
from repro.serve.reload import SnapshotManager  # same layer: always allowed

if TYPE_CHECKING:  # type-only edges never count for layering
    from repro.cli import main


def lookup(context: AnalysisContext, index: LeaseIndex, text: str):
    return index.evidence.get(parse_prefix(text)), _package_doc


def swap(manager: SnapshotManager, index: LeaseIndex):
    return manager.swap(index)
