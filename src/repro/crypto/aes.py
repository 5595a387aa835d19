"""AES-128 (FIPS 197), scalar and numpy-batched.

The paper encrypts the Memcached checkpoint "with AES-CBC which is
implemented with AES-NI" (§VIII-B, Fig. 11).  We provide:

* a scalar reference implementation (``encrypt_block``/``decrypt_block``),
  verified against the FIPS 197 appendix-C vector, and
* a numpy-vectorised batch path (``encrypt_blocks``) used by CTR mode so
  that multi-megabyte checkpoints encrypt in reasonable wall-clock time —
  the software analogue of AES-NI.

The S-box is derived from the GF(2^8) inverse plus the affine transform
rather than hard-coded, and a unit test checks the derivation against the
published table values.
"""

from __future__ import annotations

import numpy as np


def _gf_mul(a: int, b: int) -> int:
    """Multiply in GF(2^8) modulo the AES polynomial x^8+x^4+x^3+x+1."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
        b >>= 1
    return result


def _build_sbox() -> tuple[bytes, bytes]:
    """Derive the AES S-box and its inverse from first principles."""
    # Multiplicative inverses (0 maps to 0) from exp/log tables of the
    # generator 3: x = 3^k has inverse 3^(255 - k).
    exp, log = [0] * 255, [0] * 256
    value = 1
    for k in range(255):
        exp[k], log[value] = value, k
        value = _gf_mul(value, 3)
    inverse = [0] + [exp[(255 - log[x]) % 255] for x in range(1, 256)]
    sbox = bytearray(256)
    for x in range(256):
        b = inverse[x]
        s = b
        for shift in (1, 2, 3, 4):
            s ^= ((b << shift) | (b >> (8 - shift))) & 0xFF
        sbox[x] = s ^ 0x63
    inv_sbox = bytearray(256)
    for x, s in enumerate(sbox):
        inv_sbox[s] = x
    return bytes(sbox), bytes(inv_sbox)


SBOX, INV_SBOX = _build_sbox()

_SBOX_NP = np.frombuffer(SBOX, dtype=np.uint8)
_XTIME_NP = np.array([_gf_mul(x, 2) for x in range(256)], dtype=np.uint8)

_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)

# ShiftRows as a flat permutation of the 16-byte state, where flat index
# i = r + 4*c (FIPS column-major layout, which coincides with byte order).
_SHIFT_ROWS = tuple((i + 4 * (i % 4)) % 16 for i in range(16))
_INV_SHIFT_ROWS = tuple(_SHIFT_ROWS.index(i) for i in range(16))
_SHIFT_ROWS_NP = np.array(_SHIFT_ROWS, dtype=np.intp)


class Aes128:
    """AES with a 128-bit key."""

    block_size = 16

    def __init__(self, key: bytes) -> None:
        if len(key) != 16:
            raise ValueError("AES-128 key must be exactly 16 bytes")
        self._round_keys = self._expand_key(key)
        self._round_keys_np = [
            np.frombuffer(bytes(rk), dtype=np.uint8) for rk in self._round_keys
        ]

    # ------------------------------------------------------------ key schedule
    @staticmethod
    def _expand_key(key: bytes) -> list[list[int]]:
        words = [list(key[4 * i : 4 * i + 4]) for i in range(4)]
        for i in range(4, 44):
            temp = list(words[i - 1])
            if i % 4 == 0:
                temp = temp[1:] + temp[:1]
                temp = [SBOX[b] for b in temp]
                temp[0] ^= _RCON[i // 4 - 1]
            words.append([a ^ b for a, b in zip(words[i - 4], temp)])
        return [
            [b for word in words[4 * r : 4 * r + 4] for b in word]
            for r in range(11)
        ]

    # ------------------------------------------------------------ scalar path
    @staticmethod
    def _mix_single_column(col: list[int]) -> list[int]:
        a0, a1, a2, a3 = col
        return [
            _gf_mul(a0, 2) ^ _gf_mul(a1, 3) ^ a2 ^ a3,
            a0 ^ _gf_mul(a1, 2) ^ _gf_mul(a2, 3) ^ a3,
            a0 ^ a1 ^ _gf_mul(a2, 2) ^ _gf_mul(a3, 3),
            _gf_mul(a0, 3) ^ a1 ^ a2 ^ _gf_mul(a3, 2),
        ]

    @staticmethod
    def _inv_mix_single_column(col: list[int]) -> list[int]:
        a0, a1, a2, a3 = col
        return [
            _gf_mul(a0, 14) ^ _gf_mul(a1, 11) ^ _gf_mul(a2, 13) ^ _gf_mul(a3, 9),
            _gf_mul(a0, 9) ^ _gf_mul(a1, 14) ^ _gf_mul(a2, 11) ^ _gf_mul(a3, 13),
            _gf_mul(a0, 13) ^ _gf_mul(a1, 9) ^ _gf_mul(a2, 14) ^ _gf_mul(a3, 11),
            _gf_mul(a0, 11) ^ _gf_mul(a1, 13) ^ _gf_mul(a2, 9) ^ _gf_mul(a3, 14),
        ]

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block (scalar reference path)."""
        if len(block) != 16:
            raise ValueError("AES block must be 16 bytes")
        state = [b ^ k for b, k in zip(block, self._round_keys[0])]
        for round_no in range(1, 11):
            state = [SBOX[b] for b in state]
            state = [state[_SHIFT_ROWS[i]] for i in range(16)]
            if round_no != 10:
                mixed = []
                for c in range(4):
                    mixed.extend(self._mix_single_column(state[4 * c : 4 * c + 4]))
                state = mixed
            state = [b ^ k for b, k in zip(state, self._round_keys[round_no])]
        return bytes(state)

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 16-byte block (scalar reference path)."""
        if len(block) != 16:
            raise ValueError("AES block must be 16 bytes")
        state = [b ^ k for b, k in zip(block, self._round_keys[10])]
        for round_no in range(9, -1, -1):
            state = [state[_INV_SHIFT_ROWS[i]] for i in range(16)]
            state = [INV_SBOX[b] for b in state]
            state = [b ^ k for b, k in zip(state, self._round_keys[round_no])]
            if round_no != 0:
                mixed = []
                for c in range(4):
                    mixed.extend(self._inv_mix_single_column(state[4 * c : 4 * c + 4]))
                state = mixed
        return bytes(state)

    # ------------------------------------------------------------ batched path
    def encrypt_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Encrypt many blocks at once.

        ``blocks`` must be a ``(n, 16)`` uint8 array; the return value has
        the same shape.  This is the vectorised path CTR mode uses for its
        keystream, standing in for AES-NI throughput.
        """
        if blocks.ndim != 2 or blocks.shape[1] != 16 or blocks.dtype != np.uint8:
            raise ValueError("expected a (n, 16) uint8 array")
        state = blocks ^ self._round_keys_np[0]
        for round_no in range(1, 11):
            state = _SBOX_NP[state]
            state = state[:, _SHIFT_ROWS_NP]
            if round_no != 10:
                cols = state.reshape(-1, 4, 4)
                a0, a1, a2, a3 = (cols[:, :, r] for r in range(4))
                x0, x1, x2, x3 = (_XTIME_NP[a] for a in (a0, a1, a2, a3))
                mixed = np.empty_like(cols)
                mixed[:, :, 0] = x0 ^ (x1 ^ a1) ^ a2 ^ a3
                mixed[:, :, 1] = a0 ^ x1 ^ (x2 ^ a2) ^ a3
                mixed[:, :, 2] = a0 ^ a1 ^ x2 ^ (x3 ^ a3)
                mixed[:, :, 3] = (x0 ^ a0) ^ a1 ^ a2 ^ x3
                state = mixed.reshape(-1, 16)
            state = state ^ self._round_keys_np[round_no]
        return state
