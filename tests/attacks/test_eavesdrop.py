"""P-1 (confidentiality): a passive adversary learns nothing useful.

The cloud operator sees every byte on the wire, every byte in the
process's shared memory, and every evicted EPC page in normal RAM.
None of it may contain enclave plaintext — and what it does contain
(sizes, timings) is the §VII-A side-channel discussion, also pinned here.
"""

import pytest

from repro.attacks.wiretap import Wiretap
from repro.migration.orchestrator import MigrationOrchestrator
from repro.migration.testbed import build_testbed
from repro.sdk.host import HostApplication, WorkerSpec
from repro.sgx import instructions as isa
from repro.workloads.mailserver import build_mailserver_image

SECRET_CONTENT = "EYES-ONLY-merger-plans-Q3"
SECRET_RECIPIENT = "ceo@example.com"


@pytest.fixture
def scenario():
    tb = build_testbed(seed=777)
    wiretap = Wiretap.install(tb.network)
    built = build_mailserver_image(tb.builder, flavor="eavesdrop")
    tb.owner.register_image(built)
    app = HostApplication(
        tb.source, tb.source_os, built.image,
        workers=[WorkerSpec("sent_log", repeat=0)], owner=tb.owner,
    ).launch()
    app.ecall_once(
        0, "create_mail", {"recipients": [SECRET_RECIPIENT], "content": SECRET_CONTENT}
    )
    return tb, app, wiretap


def _all_wire_bytes(wiretap) -> bytes:
    return b"".join(payload for _, payload in wiretap.sends)


class TestEavesdropping:
    def test_secrets_never_on_the_wire(self, scenario):
        tb, app, wiretap = scenario
        MigrationOrchestrator(tb).migrate_enclave(app)
        wire = _all_wire_bytes(wiretap)
        assert wire
        assert SECRET_CONTENT.encode() not in wire
        assert SECRET_RECIPIENT.encode() not in wire

    def test_secrets_not_in_host_shared_memory(self, scenario):
        tb, app, _ = scenario
        MigrationOrchestrator(tb).migrate_enclave(app)
        for value in app.process.shared_memory.values():
            blob = value.to_bytes() if hasattr(value, "to_bytes") else str(value).encode()
            assert SECRET_CONTENT.encode() not in blob

    def test_secrets_not_in_evicted_pages(self, scenario):
        tb, app, _ = scenario
        driver = tb.source_os.driver
        denc = driver._entry(app.library.enclave_id)
        # Evict every evictable page and inspect the sealed images.
        for vaddr in list(denc.hw.mapped_vaddrs()):
            if denc.hw.page_present(vaddr):
                try:
                    va_index, slot = driver._va_slot()
                    blob = isa.ewb(tb.source.cpu, denc.hw, vaddr, va_index, slot)
                except Exception:
                    continue
                assert SECRET_CONTENT.encode() not in blob.ciphertext
                isa.eldb(tb.source.cpu, denc.hw, blob, va_index, slot)
                driver._release_va_slot(va_index, slot)

    def test_checkpoint_size_is_the_acknowledged_leak(self, scenario):
        """§VII-A: "the attacker may get the size of stack and heap of an
        enclave" — the size is visible, the structure is not."""
        tb, app, wiretap = scenario
        MigrationOrchestrator(tb).migrate_enclave(app)
        sizes = [len(p) for p in wiretap.captured("checkpoint")]
        assert sizes and all(s > 0 for s in sizes)  # size leaks...
        wire = b"".join(wiretap.captured("checkpoint"))
        assert b"recipients" not in wire  # ...structure does not

    def test_whole_memory_padding_mitigation(self):
        """§VII-A's mitigation: dump whole memory so size reflects the
        layout (fixed at build time), not the runtime heap usage."""
        tb = build_testbed(seed=778)
        built = build_mailserver_image(tb.builder, flavor="pad")
        tb.owner.register_image(built)
        sizes = []
        for fill in (1, 40):
            app = HostApplication(
                tb.source, tb.source_os, built.image, [], owner=tb.owner,
                name=f"pad-{fill}",
            ).launch()
            for i in range(fill):
                app.ecall_once(0, "create_mail", {"recipients": ["a"], "content": "m" * 10})
            MigrationOrchestrator(tb).checkpoint_enclave(app)
            sizes.append(app.library.last_checkpoint.envelope.size)
        # Our control thread already dumps the full readable layout, so
        # a 40x difference in live data gives byte-identical sizes.
        assert sizes[0] == sizes[1]
