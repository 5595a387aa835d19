"""Outside-in per-layer tracing of the ``repro`` packages.

No file under ``src/`` knows about this module.  :meth:`LayerTracer.install`
replaces every public function and every public method of every public
class in the layer packages with a wrapper, patches each module global that
held an original, and swaps ``builtins.pow`` so modular exponentiation lands
in ``crypto`` wherever it is written (the channel DH is done inline in
``repro.sdk.control``).  :meth:`LayerTracer.uninstall` restores all of it.

Accounting works on *buckets*: one per layer, ``bench`` for the
benchmark's own code outside any wrapped call, and a few named crypto
buckets.  A wrapper only switches bucket when the call crosses a layer
boundary (or enters a named bucket); a same-layer call is counted but
never reads the clock.  Every
interval between two clock reads is charged to exactly one bucket, so the
bucket self-times add up to the traced wall *exactly*, in integer
nanoseconds.  Each bucket switch is also a span (callable, bucket, start,
end, parent) kept in memory and written out by :meth:`write_spans`.

Generator functions (enclave entry bodies, the checkpoint generator) are
wrapped so that every resume by the simulation engine is charged to the
generator's own layer rather than to ``sim``.  Callables in
:data:`COUNT_ONLY` run far more than 10^5 times per unit; they only count
calls and their time stays with the caller.
"""

from __future__ import annotations

import builtins
import enum
import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time

LAYERS = (
    "crypto",
    "sgx",
    "net",
    "durability",
    "guestos",
    "sim",
    "hypervisor",
    "migration",
    "sdk",
    "serde",
    "telemetry",
    "invariants",
    "fleet",
    "faults",
)
BENCH = "bench"

#: Named buckets inside a layer: their self-time is part of the layer's.
NAMED_BUCKETS = {
    "crypto.modpow": "crypto",
    "crypto.rsa_keygen": "crypto",
    "crypto.cipher": "crypto",
}
_NAMED_CALLABLES = {
    "repro.crypto.rsa.generate_rsa_keypair": "crypto.rsa_keygen",
}
#: ``CryptoBackend`` methods that move cipher bytes (the ``data`` argument).
CIPHER_METHODS = ("rc4", "des_ctr", "aes_ctr", "aes_cbc_encrypt", "aes_cbc_decrypt")

#: Callables measured at more than ~10^5 calls in one unit of some
#: workload: wrapped count-only, so their time stays with their caller.
COUNT_ONLY = frozenset(
    {
        "repro.sgx.epc.EpcPage.__init__",
        "repro.sgx.epc.EpcmEntry.__init__",
        "repro.sim.engine.SimThread.maybe_wake",
        "repro.telemetry.flightrecorder.redact",
    }
)

#: Spans kept in memory per run; later switches are counted, not stored.
MAX_SPANS = 200_000

_clock = time.perf_counter_ns


def layer_modules() -> list:
    """Every module of every layer package, imported, in a stable order."""
    modules = []
    for layer in LAYERS:
        package = importlib.import_module(f"repro.{layer}")
        modules.append(package)
        for info in pkgutil.walk_packages(getattr(package, "__path__", []), f"repro.{layer}."):
            modules.append(importlib.import_module(info.name))
    return modules


def _layer_of(module_name: str) -> str:
    return module_name.split(".")[1]


def _wrappable_class(cls: type) -> bool:
    return not (
        issubclass(cls, (BaseException, enum.Enum))
        or getattr(cls, "_is_protocol", False)
    )


class LayerTracer:
    """Wrappers, bucket accounting, spans and harvested program counters."""

    def __init__(self) -> None:
        self.buckets = [BENCH, *LAYERS, *NAMED_BUCKETS]
        index = {name: i for i, name in enumerate(self.buckets)}
        self._index = index
        #: For each bucket, the bucket of the layer it belongs to.
        self.bucket_layer = [0] + [index[b] for b in LAYERS] + [
            index[layer] for layer in NAMED_BUCKETS.values()
        ]
        self.self_ns = [0] * len(self.buckets)
        self.names: list[str] = []
        self.name_layer: list[str] = []
        self.calls: list[int] = []
        self.cipher_bytes = 0
        self.on = False
        self.wall_ns = 0
        self.switches = 0
        self.spans: list[tuple] = []
        self._stack = [0]
        self._open: list[tuple] = []
        self._span_id = 0
        self._last = 0
        self._on_since = 0
        self._patches: list[tuple] = []
        self._by_id: dict[int, tuple] = {}

    # ------------------------------------------------------------ accounting
    def resume(self) -> None:
        now = _clock()
        self._last = self._on_since = now
        self.on = True

    def pause(self) -> None:
        now = _clock()
        self.self_ns[self._stack[-1]] += now - self._last
        self.wall_ns += now - self._on_since
        self.on = False

    def _enter(self, bucket: int, idx: int) -> None:
        now = _clock()
        stack = self._stack
        self.self_ns[stack[-1]] += now - self._last
        self._last = now
        self._span_id += 1
        parent = self._open[-1][4] if self._open else 0
        self._open.append((idx, bucket, now, parent, self._span_id))
        stack.append(bucket)
        self.switches += 1

    def _exit(self) -> None:
        now = _clock()
        bucket = self._stack.pop()
        if self.on:
            self.self_ns[bucket] += now - self._last
            self._last = now
        opened = self._open.pop()
        if len(self.spans) < MAX_SPANS:
            self.spans.append((*opened, now))

    def _register(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.name_layer.append(layer)
        self.calls.append(0)
        return len(self.names) - 1

    # -------------------------------------------------------------- wrappers
    def _switches(self, bucket: int, named: bool) -> bool:
        top = self._stack[-1]
        if named:
            return top != bucket
        return self.bucket_layer[top] != bucket

    def _count_only(self, fn, idx: int):
        tracer, calls = self, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.on:
                calls[idx] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, fn, idx: int, bucket: int, named: bool, data_arg: int | None):
        tracer, calls = self, self.calls
        switches, enter, exit_ = self._switches, self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            calls[idx] += 1
            if data_arg is not None:
                data = args[data_arg] if len(args) > data_arg else kwargs["data"]
                tracer.cipher_bytes += len(data)
            if not switches(bucket, named):
                return fn(*args, **kwargs)
            enter(bucket, idx)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return wrapper

    def _generator(self, fn, idx: int, bucket: int):
        tracer, calls = self, self.calls
        switches, enter, exit_ = self._switches, self._enter, self._exit

        def resumed(gen):
            value = None
            while True:
                pushed = tracer.on and switches(bucket, False)
                if pushed:
                    enter(bucket, idx)
                try:
                    item = gen.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    if pushed:
                        exit_()
                value = yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not tracer.on:
                return gen
            calls[idx] += 1
            return resumed(gen)

        return wrapper

    def _make(self, fn, qualname: str, layer: str, data_arg: int | None):
        idx = self._register(qualname, layer)
        if qualname in COUNT_ONLY:
            return self._count_only(fn, idx)
        named = "crypto.cipher" if data_arg is not None else _NAMED_CALLABLES.get(qualname)
        bucket = self._index[named or layer]
        if inspect.isgeneratorfunction(fn):
            return self._generator(fn, idx, bucket)
        return self._timed(fn, idx, bucket, named is not None, data_arg)

    def _make_pow(self):
        """Only three-argument ``pow`` is modular exponentiation."""
        original = builtins.pow
        idx = self._register("builtins.pow", "crypto")
        modpow = self._timed(original, idx, self._index["crypto.modpow"], True, None)

        def traced_pow(base, exp, mod=None):
            return original(base, exp) if mod is None else modpow(base, exp, mod)

        return original, traced_pow

    # --------------------------------------------------------------- install
    def install(self) -> None:
        """Wrap every layer's public callables and patch their holders."""
        from repro.crypto.backend import CryptoBackend

        for module in layer_modules():
            layer = _layer_of(module.__name__)
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._wrap_function(obj, f"{module.__name__}.{name}", layer, None)
                elif inspect.isclass(obj) and _wrappable_class(obj):
                    cipher = issubclass(obj, CryptoBackend)
                    self._wrap_class(obj, module.__name__, layer, cipher)
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name.startswith("repro") or (
                name.startswith("benchmarks.e2e") and name != __name__
            ):
                for attr, value in list(vars(module).items()):
                    entry = self._by_id.get(id(value))
                    if entry is not None and entry[0] is value:
                        self._patches.append((module, attr, value))
                        setattr(module, attr, entry[1])
        original, traced_pow = self._make_pow()
        self._patches.append((builtins, "pow", original))
        builtins.pow = traced_pow

    def _wrap_function(self, fn, qualname: str, layer: str, data_arg: int | None):
        entry = self._by_id.get(id(fn))
        if entry is None:
            entry = (fn, self._make(fn, qualname, layer, data_arg))
            self._by_id[id(fn)] = entry
        return entry[1]

    def _wrap_class(self, cls: type, module_name: str, layer: str, cipher: bool) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
            fn = raw.__func__ if kind else raw
            if not inspect.isfunction(fn):
                continue
            data_arg = None
            if cipher and attr in CIPHER_METHODS:
                data_arg = list(inspect.signature(fn).parameters).index("data")
            qualname = f"{module_name}.{cls.__qualname__}.{attr}"
            wrapped = self._wrap_function(fn, qualname, layer, data_arg)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, kind(wrapped) if kind else wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()
        self._by_id.clear()

    # ---------------------------------------------------------------- output
    def layer_self_ns(self) -> dict[str, int]:
        """Self-time per layer (named buckets folded into their layer)."""
        out = {BENCH: 0, **{layer: 0 for layer in LAYERS}}
        for bucket, ns in enumerate(self.self_ns):
            out[self.buckets[self.bucket_layer[bucket]]] += ns
        return out

    def layer_calls(self) -> dict[str, int]:
        out = {layer: 0 for layer in LAYERS}
        for layer, n in zip(self.name_layer, self.calls):
            out[layer] += n
        return out

    def bucket_ns(self, bucket: str) -> int:
        return self.self_ns[self._index[bucket]]

    def calls_of(self, qualname: str) -> int:
        return sum(n for name, n in zip(self.names, self.calls) if name == qualname)

    def hottest(self, n: int = 15) -> list[tuple[str, int]]:
        ranked = sorted(zip(self.names, self.calls), key=lambda item: -item[1])
        return ranked[:n]

    def write_spans(self, path: str) -> None:
        """Spans as ``[callable, bucket, start_ns, end_ns, parent, id]``."""
        origin = self.spans[0][2] if self.spans else 0
        payload = {
            "buckets": self.buckets,
            "callables": self.names,
            "fields": ["callable", "bucket", "start_ns", "end_ns", "parent", "id"],
            "switches": self.switches,
            "dropped": self.switches - len(self.spans),
            "spans": [
                [idx, bucket, start - origin, end - origin, parent, span_id]
                for idx, bucket, start, parent, span_id, end in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


#: Program counters read from each testbed's own metrics registry:
#: per-layer metric name -> registry family (summed over labels).
REGISTRY_COUNTERS = {
    "sgx.instructions": "sgx.instructions_total",
    "net.messages": "wire.messages_total",
    "net.wire_bytes": "wire.bytes",
    "net.chunk_retransmits": "migration.chunk_retransmits_total",
    "durability.journal_appends": "journal.appends_total",
    "hypervisor.precopy_rounds": "migration.precopy_rounds",
    "migration.checkpoint_bytes": "checkpoint.bytes",
    "migration.retries": "migration.retries_total",
    "invariants.checks": "invariants.checks_total",
}
#: Where a nanosecond of virtual downtime went, by critical-path blame.
DOWNTIME_PARTS = ("checkpoint", "journal", "wire", "restore", "other")
_CHECKPOINT_UNITS = ("checkpoint.two_phase", "migration.step.checkpoint", "vm.checkpoint_window")
_RESTORE_UNITS = ("migration.step.restore", "migration.step.resume", "vm.restore")


def downtime_part(blame: str) -> str:
    """Classify one critical-path unit name (``party/span#track``)."""
    if blame.startswith("wire/"):
        return "wire"
    name = blame.split("/", 1)[-1].split("#", 1)[0]
    if name.startswith("journal."):
        return "journal"
    if name in _CHECKPOINT_UNITS:
        return "checkpoint"
    if name in _RESTORE_UNITS:
        return "restore"
    return "other"


class Harvest:
    """The program's own counters and critical paths, read after the fact."""

    def __init__(self) -> None:
        self.counters = dict.fromkeys(REGISTRY_COUNTERS, 0)
        self.counters["telemetry.spans"] = 0
        self.threads_end = 0
        self.downtime_parts = dict.fromkeys(DOWNTIME_PARTS, 0)
        self.downtime_ns = 0
        self.mismatches: list[str] = []
        self._baselines: dict[int, dict[str, int]] = {}

    @staticmethod
    def _read(tb) -> dict[str, int]:
        metrics = tb.telemetry.metrics
        values = {
            name: int(metrics.sum_across_labels(family))
            for name, family in REGISTRY_COUNTERS.items()
        }
        values["telemetry.spans"] = len(tb.telemetry.tracer.finished())
        return values

    def start(self, tb) -> None:
        """Count only what happens from now on (set-up is not measured)."""
        self._baselines[id(tb)] = self._read(tb)

    def testbed(self, tb) -> None:
        """Fold in one testbed's registry at the end of its life."""
        baseline = self._baselines.pop(id(tb), {})
        for name, value in self._read(tb).items():
            self.counters[name] += value - baseline.get(name, 0)
        threads = len(tb.source_os.engine.threads) + len(tb.target_os.engine.threads)
        self.threads_end = max(self.threads_end, threads)

    def _add(self, segments, total_ns: int) -> None:
        covered = 0
        for segment in segments:
            self.downtime_parts[downtime_part(segment.blame)] += segment.duration_ns
            covered += segment.duration_ns
        if covered != total_ns:
            self.mismatches.append(f"downtime partition {covered} != {total_ns} ns")
        self.downtime_ns += covered

    def enclave_downtime(self, tb) -> None:
        """Partition the last enclave migration's downtime."""
        from repro.telemetry.criticalpath import ANCHOR_DOWNTIME, critical_path

        path = critical_path(tb.telemetry, tb.network, ANCHOR_DOWNTIME)
        self._add(path.segments, int(tb.telemetry.metrics.value("migration.downtime_ns")))

    def vm_downtime(self, tb, report) -> None:
        """Partition a VM migration's downtime.

        The VM's downtime is its checkpointing window (from the start of
        ``vm.prepare``) plus the ``vm.stop_and_copy`` residual transfer;
        the window is attributed over the spans and wire records inside it.
        """
        from repro.telemetry import Span
        from repro.telemetry.criticalpath import attribute_interval

        tracer = tb.telemetry.tracer
        stop = tracer.last("vm.stop_and_copy")
        start = tracer.last("vm.prepare").start_ns
        window = Span(
            span_id=0,
            name="vm.checkpoint_window",
            party="source",
            track="",
            start_ns=start,
            end_ns=start + report.downtime_ns - stop.duration_ns,
        )
        path = attribute_interval(window, [window, *tracer.spans], tb.network.log)
        self._add(path.segments, window.duration_ns)
        self.downtime_parts["wire"] += stop.duration_ns
        self.downtime_ns += stop.duration_ns
