// Layer replay of the wall-clock benchmark: times public functions of the
// crypto, ledger and storage layers on one workload's own inputs, outside
// the cluster, and prints one JSON line of per-call medians in µs.
//
//   layer_replay --seed N --bytes N --block-size N --record-bytes N --dir DIR
//
// Blocks are built from the seeded benchmark envelopes (envelope.hpp);
// SHA-256 is timed on 4 KiB envelopes of the same seed whatever the
// workload's size; WAL appends use records of --record-bytes with fsync off
// in a fresh log under --dir.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <vector>

#include "common/cli.hpp"
#include "crypto/ecdsa.hpp"
#include "envelope.hpp"
#include "ledger/block.hpp"
#include "storage/wal.hpp"

namespace {

using namespace bft;
using Clock = std::chrono::steady_clock;

/// Median over `rounds` of the mean time per call of `calls` calls, in µs.
double median_us(int rounds, int calls, const std::function<void(int)>& fn) {
  std::vector<double> means;
  int n = 0;
  for (int r = 0; r < rounds; ++r) {
    const auto t0 = Clock::now();
    for (int c = 0; c < calls; ++c) fn(n++);
    const std::chrono::duration<double, std::micro> spent = Clock::now() - t0;
    means.push_back(spent.count() / calls);
  }
  std::sort(means.begin(), means.end());
  return means[means.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const auto bytes = static_cast<std::size_t>(flags.get_int("bytes", 40));
  const auto block_size = static_cast<std::size_t>(flags.get_int("block-size", 10));
  const auto record_bytes =
      static_cast<std::size_t>(flags.get_int("record-bytes", 4096));
  const std::string dir = flags.get("dir", "");
  if (!flags.unused().empty() || dir.empty() || block_size == 0 ||
      bytes < perfbench::kHeaderBytes + 8) {
    std::fprintf(stderr,
                 "usage: layer_replay --seed N --bytes N --block-size N "
                 "--record-bytes N --dir DIR\n%s\n",
                 flags.unused().c_str());
    return 2;
  }

  const perfbench::EnvelopeMaker maker(seed, bytes);
  constexpr int kBlocks = 16;
  std::vector<ledger::Block> blocks;
  crypto::Hash256 previous = ledger::genesis_hash("channel-0");
  for (int b = 0; b < kBlocks; ++b) {
    std::vector<Bytes> envelopes;
    for (std::size_t i = 0; i < block_size; ++i) {
      envelopes.push_back(maker.make(1 + b * block_size + i));
    }
    blocks.push_back(ledger::make_block(b + 1, previous, std::move(envelopes)));
    previous = blocks.back().header.digest();
  }

  const crypto::PrivateKey key =
      crypto::PrivateKey::from_seed(to_bytes("perfbench-node-0"));
  const crypto::PublicKey pub = key.public_key();
  std::vector<crypto::Hash256> digests;
  std::vector<crypto::Signature> signatures;
  for (const auto& block : blocks) {
    digests.push_back(block.header.digest());
    signatures.push_back(key.sign(digests.back()));
  }
  std::size_t sink = 0;
  const double sign_us = median_us(9, 40, [&](int i) {
    sink += key.sign(digests[i % kBlocks]).to_bytes()[0];
  });
  const double verify_us = median_us(9, 30, [&](int i) {
    sink += pub.verify(digests[i % kBlocks], signatures[i % kBlocks]) ? 1 : 0;
  });

  const perfbench::EnvelopeMaker maker4k(seed, 4096);
  std::vector<Bytes> large;
  for (int i = 0; i < kBlocks; ++i) large.push_back(maker4k.make(1 + i));
  const double sha_us = median_us(9, 400, [&](int i) {
    sink += crypto::sha256(large[i % kBlocks])[0];
  });

  const int block_calls = std::max(4, static_cast<int>(40000 / (block_size * bytes / 64 + 1)));
  const double data_hash_us = median_us(9, block_calls, [&](int i) {
    sink += ledger::compute_data_hash(blocks[i % kBlocks].envelopes)[0];
  });
  const double encode_us = median_us(9, block_calls, [&](int i) {
    sink += blocks[i % kBlocks].encode().size();
  });

  std::filesystem::remove_all(dir);
  storage::WalOptions wal_options;
  wal_options.directory = dir;
  wal_options.fsync = storage::FsyncPolicy::off;
  auto wal = storage::WriteAheadLog::open(wal_options);
  if (!wal.ok()) {
    std::fprintf(stderr, "layer_replay: %s\n", wal.error().c_str());
    return 1;
  }
  const std::unique_ptr<storage::WriteAheadLog> log = std::move(wal).take();
  const perfbench::EnvelopeMaker record_maker(seed, std::max<std::size_t>(record_bytes, 28));
  std::vector<Bytes> records;
  for (int i = 0; i < kBlocks; ++i) records.push_back(record_maker.make(1 + i));
  bool appended = true;
  const int append_calls = std::max(8, static_cast<int>((8u << 20) / 9 / (record_bytes + 64)));
  const double wal_us = median_us(9, append_calls, [&](int i) {
    appended = appended && log->append(i + 1, records[i % kBlocks]).is_ok();
  });
  std::filesystem::remove_all(dir);
  if (!appended) {
    std::fprintf(stderr, "layer_replay: WAL append failed\n");
    return 1;
  }

  std::printf(
      "{\"crypto.ecdsa_sign_us\":%.4f,\"crypto.ecdsa_verify_us\":%.4f,"
      "\"crypto.sha256_4KiB_us\":%.4f,\"ledger.data_hash_us\":%.4f,"
      "\"ledger.block_encode_us\":%.4f,\"storage.wal_append_us\":%.4f,"
      "\"sink\":%zu}\n",
      sign_us, verify_us, sha_us, data_hash_us, encode_us, wal_us, sink);
  return 0;
}
