"""Calibrated cost model.

Every modelled duration in the reproduction comes from one instance of
:class:`CostModel`, so experiments are reproducible and calibration lives in
exactly one place.  The default constants are calibrated against the numbers
the paper reports for its Skylake testbed (DELL Inspiron 7559, i7-6700HQ):

* RC4 over the 20 KB checkpoint takes about 200 us  -> 10 ns/byte.
* DES over the same checkpoint takes about 300 us   -> 15 ns/byte.
* Two-phase checkpointing totals ~255 us with <=4 enclaves (Fig. 9c).
* Restoring an enclave takes ~175 us, linear in enclave count (Fig. 10a).
* Migrating a 2 GB VM moves ~1 GB and takes ~30 s (Fig. 10b/10d).
* Downtime without enclaves is ~8 ms (Fig. 10c).

The absolute values are a model (we have no Skylake SGX part here); the
benchmark suite validates the *shapes* of the paper's figures, which emerge
from mechanism (VCPU contention, serial rebuild, per-byte crypto cost), not
from these constants alone.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CostModel:
    """Modelled durations, all in nanoseconds (or ns per byte / per page)."""

    # -- cipher and hash throughput (ns per byte) ---------------------------
    rc4_ns_per_byte: float = 10.0
    des_ns_per_byte: float = 15.0
    aes_sw_ns_per_byte: float = 12.0
    aes_ni_ns_per_byte: float = 2.5
    sha256_ns_per_byte: float = 1.5
    memcpy_ns_per_byte: float = 0.25

    # -- SGX instruction latencies -------------------------------------------
    ecreate_ns: int = 10_000
    eadd_page_ns: int = 1_500
    eextend_page_ns: int = 1_500
    einit_ns: int = 20_000
    eenter_ns: int = 3_800
    eexit_ns: int = 3_300
    eresume_ns: int = 3_800
    aex_ns: int = 7_000
    ewb_page_ns: int = 10_000
    eldb_page_ns: int = 10_000
    eremove_page_ns: int = 700
    ereport_ns: int = 4_000
    egetkey_ns: int = 3_000
    # Extra penalty for touching an EPC page that was evicted (page-fault
    # round trip through the driver plus ELDB).  This is what makes the
    # memory-hungry nbench kernels slow inside an enclave (Fig. 9a).
    epc_fault_ns: int = 22_000

    # -- guest scheduling ------------------------------------------------------
    context_switch_ns: int = 1_200
    signal_delivery_ns: int = 3_000
    hypercall_ns: int = 2_000
    upcall_ns: int = 4_000

    # -- network (migration link between source and target machine) ----------
    net_bandwidth_bytes_per_s: int = 37_500_000  # 300 Mbit/s effective
    net_latency_ns: int = 250_000  # one-way, same rack

    # -- pre-copy delta encoding ----------------------------------------------
    # A page re-dirtied after its first full send ships as an XOR+RLE
    # delta against the copy the target already holds.  The ratio is the
    # wire bytes of such a delta as a fraction of the full page; guest
    # writers touch a few cache lines per re-dirtied page, so deltas
    # compress well (see docs/CALIBRATION.md for the measurement).
    precopy_delta_ratio: float = 0.32
    delta_page_header_bytes: int = 16  # page number + run table per delta

    # -- wide-area paths used by attestation ----------------------------------
    wan_latency_ns: int = 18_000_000  # one-way to owner / IAS
    ias_processing_ns: int = 5_000_000

    # -- durability ------------------------------------------------------------
    # One write-ahead journal commit: append + fsync on commodity SSD
    # plus the monotonic-counter bump.  Charged on every party's state
    # transition, so it sits on the migration hot path.
    # Calibrated by scripts/calibrate_fsync.py: median of 2000 timed
    # 256-byte append+fsync cycles on this repo's filesystem (median
    # 130,503 ns, p10 100,637 ns, p90 202,509 ns, mean 144,555 ns).
    journal_commit_ns: int = 131_000

    # ------------------------------------------------------------------ helpers
    def cipher_ns(self, algorithm: str, n_bytes: int) -> int:
        """Modelled time to run ``algorithm`` over ``n_bytes`` of data."""
        per_byte = {
            "rc4": self.rc4_ns_per_byte,
            "des": self.des_ns_per_byte,
            "aes": self.aes_sw_ns_per_byte,
            "aes-ni": self.aes_ni_ns_per_byte,
        }.get(algorithm)
        if per_byte is None:
            raise ValueError(f"unknown cipher algorithm: {algorithm!r}")
        return int(per_byte * n_bytes)

    def hash_ns(self, n_bytes: int) -> int:
        """Modelled time to hash ``n_bytes`` with SHA-256."""
        return int(self.sha256_ns_per_byte * n_bytes)

    def memcpy_ns(self, n_bytes: int) -> int:
        """Modelled time to copy ``n_bytes`` between buffers."""
        return int(self.memcpy_ns_per_byte * n_bytes)

    def net_transfer_ns(self, n_bytes: int) -> int:
        """Modelled time to push ``n_bytes`` over the migration link."""
        serialize = int(n_bytes * 1_000_000_000 / self.net_bandwidth_bytes_per_s)
        return self.net_latency_ns + serialize

    def wan_round_trip_ns(self) -> int:
        """Modelled round-trip to a wide-area service (owner or IAS)."""
        return 2 * self.wan_latency_ns

    def enclave_build_ns(self, n_pages: int) -> int:
        """Modelled time to rebuild an enclave of ``n_pages`` EPC pages."""
        return (
            self.ecreate_ns
            + n_pages * (self.eadd_page_ns + self.eextend_page_ns)
            + self.einit_ns
        )


DEFAULT_COSTS = CostModel()
