#pragma once

#include <cstdint>
#include <functional>

namespace saufno {
namespace runtime {

/// Chunked parallel loop over [begin, end) — the runtime's one parallel
/// primitive. `fn(chunk_begin, chunk_end)` is invoked over consecutive chunks
/// of exactly `grain` iterations (the last chunk may be short). Chunk
/// boundaries depend only on `grain` — never on the thread count or on
/// scheduling order — so a kernel that writes each output index from exactly
/// one chunk, or a reduction that keeps one partial per chunk and combines
/// them in chunk order, is bit-identical for every SAUFNO_NUM_THREADS. Chunks
/// are claimed dynamically by the pool workers plus the calling thread; the
/// call returns once all chunks have finished. The first exception thrown by
/// `fn` is rethrown on the caller.
///
/// Flat: a loop called from inside a running chunk of another loop runs
/// inline on that thread, with the same chunking, in chunk order. So a pool
/// thread never waits: the only thread that blocks is a top-level caller,
/// and it runs chunks itself until none is left unclaimed, so it then waits
/// only for chunks already running on other threads.
void parallel_for(int64_t begin, int64_t end, int64_t grain,
                  const std::function<void(int64_t, int64_t)>& fn);

/// Deterministic parallel sum over [0, n): `chunk_sum(b, e)` returns the
/// double partial for one grain-sized chunk; partials are combined in chunk
/// order, so the result is identical for every thread count.
double parallel_sum(int64_t n, int64_t grain,
                    const std::function<double(int64_t, int64_t)>& chunk_sum);

}  // namespace runtime
}  // namespace saufno
