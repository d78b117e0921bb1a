"""RC111 must fire: frozen snapshots passed into mutating helpers."""

from repro.core.context import AnalysisContext
from repro.core.leaseindex import LeaseIndex


def _poison(context):
    context.cache = {}  # mutates whatever it is handed


def _forward(context):
    return _poison(context)  # mutation one hop further away


def run(records):
    ctx = AnalysisContext(records)
    _poison(ctx)
    _forward(ctx)
    return ctx


class Swapper:
    def _stamp(self, index):
        index.generation += 1

    def rotate(self, records):
        index = LeaseIndex(records)
        self._stamp(index)  # method calls shift past self
        return index
