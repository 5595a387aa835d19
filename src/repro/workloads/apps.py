"""Security-minded applications ported into enclaves (Figure 9(b)).

"we also choose some real world applications which have security
requirements, change them to applications with enclave, and evaluate
their performance with and without migration support" (§VIII-A).

Each application gets one enclave entry doing the real computation: the
ciphers the crypto backend offers (RC4, AES-CBC) go through it, the rest
run on this repository's own algorithm implementations:

* ``des``     — DES-CBC encryption of an in-enclave buffer.
* ``cr4``     — RC4 keystream over an in-enclave buffer.
* ``mcrypt``  — AES-128-CBC (the mcrypt library's workhorse).
* ``gnupg``   — SHA-256 digest + RSA sign/verify.
* ``libjpeg`` — 8x8 integer DCT + quantization over image blocks.
* ``libzip``  — LZ77-style compression with round-trip verification.
"""

from __future__ import annotations

import math

from repro.crypto.backend import get_backend
from repro.crypto.des import Des
from repro.crypto.hashes import sha256
from repro.crypto.modes import cbc_decrypt, cbc_encrypt
from repro.crypto.rsa import generate_rsa_keypair
from repro.sdk.builder import BuiltImage, SdkBuilder
from repro.sdk.program import AtomicEntry, EnclaveProgram
from repro.sdk.runtime import EnclaveRuntime
from repro.sgx.structures import PAGE_SIZE
from repro.sim.rng import DeterministicRng

APP_NAMES = ("des", "cr4", "mcrypt", "gnupg", "libjpeg", "libzip")

_BUFFER_BYTES = 2 * PAGE_SIZE


def _load_buffer(rt: EnclaveRuntime, seed: int) -> bytes:
    """Materialize a deterministic input buffer in enclave memory."""
    data = DeterministicRng(seed).bytes(_BUFFER_BYTES)
    rt.write(rt.layout.heap_base, data)
    return rt.read(rt.layout.heap_base, _BUFFER_BYTES)


def _store_result(rt: EnclaveRuntime, blob: bytes) -> None:
    rt.write(rt.layout.heap_base, blob[: rt.layout.heap_bytes])


# ---------------------------------------------------------------- entries
def _des_entry(rt: EnclaveRuntime, args) -> int:
    data = _load_buffer(rt, int(args or 1))
    cipher = Des(sha256(b"des-key")[:8])
    ciphertext = cbc_encrypt(cipher, b"\x00" * 8, data[:1024])
    assert cbc_decrypt(cipher, b"\x00" * 8, ciphertext) == data[:1024]
    _store_result(rt, ciphertext)
    return len(ciphertext)


def _cr4_entry(rt: EnclaveRuntime, args) -> int:
    data = _load_buffer(rt, int(args or 1))
    ciphertext = get_backend().rc4(b"cr4-key", data)
    assert get_backend().rc4(b"cr4-key", ciphertext) == data
    _store_result(rt, ciphertext)
    return len(ciphertext)


def _mcrypt_entry(rt: EnclaveRuntime, args) -> int:
    data = _load_buffer(rt, int(args or 1))
    key = sha256(b"mcrypt-key")[:16]
    ciphertext = get_backend().aes_cbc_encrypt(key, b"\x01" * 16, data[:2048])
    assert get_backend().aes_cbc_decrypt(key, b"\x01" * 16, ciphertext) == data[:2048]
    _store_result(rt, ciphertext)
    return len(ciphertext)


_GNUPG_KEY = None


def _gnupg_entry(rt: EnclaveRuntime, args) -> int:
    global _GNUPG_KEY
    if _GNUPG_KEY is None:
        _GNUPG_KEY = generate_rsa_keypair(DeterministicRng("gnupg-key"), bits=512)
    data = _load_buffer(rt, int(args or 1))
    signature = _GNUPG_KEY.sign(data)
    _GNUPG_KEY.public.verify(data, signature)
    _store_result(rt, signature)
    return len(signature)


_DCT_SCALE = 1 << 10
_DCT_COS = [
    [int(_DCT_SCALE * math.cos((2 * x + 1) * u * math.pi / 16)) for x in range(8)]
    for u in range(8)
]


def _dct_8x8(block: list[int]) -> list[int]:
    """Integer 8x8 DCT-II (separable, fixed point)."""
    scale, cos = _DCT_SCALE, _DCT_COS
    temp = [0] * 64
    for u in range(8):
        for x in range(8):
            temp[u * 8 + x] = sum(block[y * 8 + x] * cos[u][y] for y in range(8)) // scale
    out = [0] * 64
    for u in range(8):
        for v in range(8):
            out[u * 8 + v] = sum(temp[u * 8 + x] * cos[v][x] for x in range(8)) // scale
    return out


_QUANT = [16, 11, 10, 16, 24, 40, 51, 61] * 8


def _libjpeg_entry(rt: EnclaveRuntime, args) -> int:
    data = _load_buffer(rt, int(args or 1))
    checksum = 0
    for block_no in range(8):
        block = [b - 128 for b in data[block_no * 64 : block_no * 64 + 64]]
        coefficients = _dct_8x8(block)
        quantized = [c // q for c, q in zip(coefficients, _QUANT)]
        checksum ^= sum(abs(q) for q in quantized) & 0xFFFF
    rt.store_u64(rt.layout.heap_base, checksum)
    return checksum


def lz77_compress(data: bytes, window: int = 255) -> bytes:
    """Tiny LZ77: (flag, offset, length, literal) tokens."""
    out = bytearray()
    i = 0
    while i < len(data):
        best_len, best_off = 0, 0
        start = max(0, i - window)
        for j in range(start, i):
            length = 0
            while (
                length < 255
                and i + length < len(data)
                and data[j + length] == data[i + length]
                and j + length < i
            ):
                length += 1
            if length > best_len:
                best_len, best_off = length, i - j
        if best_len >= 4:
            out += bytes((1, best_off, best_len))
            i += best_len
        else:
            out += bytes((0, data[i]))
            i += 1
    return bytes(out)


def lz77_decompress(blob: bytes) -> bytes:
    out = bytearray()
    i = 0
    while i < len(blob):
        if blob[i] == 0:
            out.append(blob[i + 1])
            i += 2
        else:
            offset, length = blob[i + 1], blob[i + 2]
            for _ in range(length):
                out.append(out[-offset])
            i += 3
    return bytes(out)


def _libzip_entry(rt: EnclaveRuntime, args) -> int:
    # Compressible input: repeated phrases with noise.
    rng = DeterministicRng(int(args or 1))
    phrase = b"the quick brown enclave jumps over the lazy hypervisor "
    data = bytearray()
    while len(data) < 2048:
        data += phrase
        data.append(rng.randint(0, 255))
    data = bytes(data[:2048])
    rt.write(rt.layout.heap_base, data)
    compressed = lz77_compress(rt.read(rt.layout.heap_base, len(data)))
    assert lz77_decompress(compressed) == data
    _store_result(rt, compressed)
    return len(compressed)


_ENTRIES = {
    "des": (_des_entry, 900_000),
    "cr4": (_cr4_entry, 300_000),
    "mcrypt": (_mcrypt_entry, 500_000),
    "gnupg": (_gnupg_entry, 1_600_000),
    "libjpeg": (_libjpeg_entry, 700_000),
    "libzip": (_libzip_entry, 800_000),
}


def build_app_image(builder: SdkBuilder, app_name: str, flavor: str = "default") -> BuiltImage:
    """Build the enclave image for one Figure 9(b) application."""
    fn, cost = _ENTRIES[app_name]
    program = EnclaveProgram(f"repro/app-{app_name}-{flavor}-v1")
    program.add_entry("process", AtomicEntry(fn, cost_ns=cost))
    return builder.build(f"app-{app_name}-{flavor}", program, n_workers=2, heap_pages=4)
