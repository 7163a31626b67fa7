"""Output checks of the wall-clock benchmark, made apart from the program.

Everything here is recomputed from the block format (src/ledger/block.cpp)
and the seeded envelope layout (envelope.hpp) with Python's hashlib, which
uses OpenSSL's SHA-256, so no code of the ordering service is trusted:

  * every delivered block's data hash and previous-header hash;
  * every envelope's bytes against the seeded generator, and exactly-once
    delivery of the set it produced;
  * each node's "ordered N envelopes" stop total against the load process's
    delivered total.

`python3 perfbench/check.py --self-test` builds a small chain in this file,
breaks it in each way the checks must catch, and exits non-zero unless every
check fails on its broken input and passes on the intact one.
"""

import hashlib
import struct
import sys

CHANNEL = "channel-0"
POOL_BYTES = 1 << 16
HEADER_BYTES = 20
OFFSET_STRIDE = 2654435761
MASK64 = (1 << 64) - 1


def splitmix_pool(seed):
    state = seed & MASK64
    out = bytearray()
    for _ in range(POOL_BYTES // 8):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out += struct.pack("<Q", z ^ (z >> 31))
    return bytes(out)


class Envelopes:
    """The seeded generator's envelopes, as envelope.hpp makes them."""

    def __init__(self, seed, size):
        self.seed = seed & MASK64
        self.size = size
        self.pool = splitmix_pool(seed)
        self.prefix = b"PBv1" + struct.pack("<Q", self.seed)

    def make(self, index):
        body = self.size - HEADER_BYTES
        offset = (index * OFFSET_STRIDE) % (POOL_BYTES - body)
        return self.prefix + struct.pack("<Q", index) + self.pool[offset:offset + body]


def genesis_hash(channel=CHANNEL):
    return hashlib.sha256(b"bft-ordering-genesis:" + channel.encode()).digest()


def data_hash(envelopes):
    h = hashlib.sha256(struct.pack("<I", len(envelopes)))
    for e in envelopes:
        h.update(struct.pack("<I", len(e)))
        h.update(e)
    return h.digest()


def encode_block(number, previous, envelopes, data=None):
    header = struct.pack("<Q", number) + previous + (data or data_hash(envelopes))
    out = [struct.pack("<I", len(header)), header, struct.pack("<I", len(envelopes))]
    for e in envelopes:
        out += [struct.pack("<I", len(e)), e]
    return b"".join(out)


def decode_block(buf):
    """Returns (header bytes, number, previous hash, data hash, envelopes)."""
    (hlen,) = struct.unpack_from("<I", buf, 0)
    if hlen != 72:
        raise ValueError("header of %d bytes" % hlen)
    header = buf[4:76]
    number = struct.unpack_from("<Q", header, 0)[0]
    (count,) = struct.unpack_from("<I", buf, 76)
    pos = 80
    envelopes = []
    for _ in range(count):
        (n,) = struct.unpack_from("<I", buf, pos)
        envelopes.append(buf[pos + 4:pos + 4 + n])
        pos += 4 + n
    if pos != len(buf):
        raise ValueError("trailing bytes in block %d" % number)
    return header, number, header[8:40], header[40:72], envelopes


def read_blocks(path):
    """Blocks as the load process wrote them: u32 length + encoding."""
    with open(path, "rb") as f:
        raw = f.read()
    pos, blocks = 0, []
    while pos < len(raw):
        (n,) = struct.unpack_from("<I", raw, pos)
        blocks.append(raw[pos + 4:pos + 4 + n])
        pos += 4 + n
    return blocks


def check_chain(encoded_blocks):
    """Numbers run 1.., each data hash matches its envelopes and each block
    names the SHA-256 of the previous header. Returns (errors, blocks)."""
    errors, decoded = [], []
    previous = genesis_hash()
    for i, buf in enumerate(encoded_blocks):
        try:
            header, number, prev, dhash, envelopes = decode_block(buf)
        except (ValueError, struct.error) as exc:
            errors.append("block %d undecodable: %s" % (i + 1, exc))
            break
        if number != i + 1:
            errors.append("block %d delivered as number %d" % (i + 1, number))
        if prev != previous:
            errors.append("block %d previous-header hash mismatch" % number)
        if dhash != data_hash(envelopes):
            errors.append("block %d data hash mismatch" % number)
        previous = hashlib.sha256(header).digest()
        decoded.append(envelopes)
    return errors, decoded


def check_envelopes(decoded, generator, attempted):
    """Every delivered envelope is one the generator made for an index below
    `attempted`, byte for byte, and each of those indices is delivered
    exactly once. Returns (errors, deliveries per index)."""
    errors = []
    counts = [0] * attempted
    for envelopes in decoded:
        for e in envelopes:
            index = struct.unpack_from("<Q", e, 12)[0] if len(e) >= HEADER_BYTES else -1
            if not 0 <= index < attempted or e != generator.make(index):
                errors.append("envelope not made by the generator (index %d)" % index)
                continue
            counts[index] += 1
    missing = sum(1 for c in counts if c == 0)
    if missing:
        errors.append("%d envelopes never delivered" % missing)
    dup = sum(1 for c in counts if c > 1)
    if dup:
        errors.append("%d envelopes delivered more than once" % dup)
    return errors, counts


def check_totals(node_totals, delivered):
    return ["node %s ordered %d envelopes, load process got %d" % (node, n, delivered)
            for node, n in sorted(node_totals.items()) if n != delivered]


def self_test():
    gen = Envelopes(seed=7, size=40)
    attempted = 30
    envs = [gen.make(i) for i in range(attempted)]

    def chain(groups):
        out, prev = [], genesis_hash()
        for n, group in enumerate(groups, start=1):
            out.append(encode_block(n, prev, group))
            prev = hashlib.sha256(out[-1][4:76]).digest()
        return out

    def run_checks(blocks, ordered):
        errors, decoded = check_chain(blocks)
        env_errors, counts = check_envelopes(decoded, gen, attempted)
        delivered = sum(counts)
        return errors + env_errors + check_totals({0: ordered}, delivered)

    good = [envs[i:i + 10] for i in range(0, attempted, 10)]
    tampered = [list(g) for g in good]
    tampered[1][3] = tampered[1][3][:-1] + bytes([tampered[1][3][-1] ^ 1])
    tampered_rehashed = chain(tampered)  # a valid chain over a forged envelope
    dropped = [list(g) for g in good]
    del dropped[2][5]
    duplicated = [list(g) for g in good]
    duplicated[2].append(envs[4])
    broken = chain(good)
    broken[2] = encode_block(3, b"\0" * 32, good[2])
    # (name, blocks, must fail, envelopes each node ordered)
    cases = [
        ("intact chain", chain(good), False, attempted),
        ("tampered envelope", tampered_rehashed, True, attempted),
        ("dropped envelope", chain(dropped), True, attempted),
        # Lost before any node ordered it: the node totals agree with the
        # deliveries, so only the exactly-once check can catch it.
        ("envelope lost before ordering", chain(dropped), True, attempted - 1),
        ("duplicated envelope", chain(duplicated), True, attempted),
        ("broken chain", broken, True, attempted),
        ("envelope changed after hashing",
         chain(good)[:1] + [chain(good)[1].replace(envs[12], envs[12][:-1] + b"\xff")]
         + chain(good)[2:], True, attempted),
    ]
    ok = True
    for name, blocks, must_fail, ordered in cases:
        errors = run_checks(blocks, ordered)
        passed = bool(errors) == must_fail
        ok &= passed
        print("%-32s %s  %s" % (name, "caught" if errors else "clean",
                                 "ok" if passed else "WRONG"))
        for e in errors:
            print("    " + e)
    return ok


if __name__ == "__main__":
    if sys.argv[1:] != ["--self-test"]:
        print("usage: python3 perfbench/check.py --self-test", file=sys.stderr)
        sys.exit(2)
    sys.exit(0 if self_test() else 1)
