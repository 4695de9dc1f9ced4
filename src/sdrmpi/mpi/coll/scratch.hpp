// Per-endpoint scratch for the collective engine.
//
// Collectives are blocking at the application level, so one endpoint never
// runs two schedules at once and a single scratch set can be recycled
// across every collective call: the block-handle tables and request lists
// keep their vector capacity, and reduction results are written straight
// into pooled payload slabs (Payload::fresh). Steady-state collective loops
// therefore touch the heap zero times — the bound tests/pool_test.cpp pins.
#pragma once

#include <cstddef>
#include <vector>

#include "sdrmpi/mpi/request.hpp"
#include "sdrmpi/net/payload.hpp"

namespace sdrmpi::mpi::coll {

/// Recycled vectors for schedules (capacity survives between collectives).
struct Scratch {
  std::vector<net::Payload> in_blocks;   ///< per-destination send blocks
  std::vector<net::Payload> out_blocks;  ///< per-source result blocks
  std::vector<net::Payload> stage;       ///< Bruck rotation/staging table
  std::vector<net::Payload> parts;       ///< concat pack list
  std::vector<Request> reqs;             ///< nonblocking fan-out requests
  std::vector<std::size_t> offs;         ///< alltoallv send offsets
  std::vector<std::size_t> offs2;        ///< alltoallv recv offsets
};

}  // namespace sdrmpi::mpi::coll
