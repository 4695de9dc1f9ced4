// Wire frame format, as the MPI layer sees it: net::FrameHeader travels by
// value from the sending endpoint through the fabric into the receiver's
// inbox and matching queues, and a frame's payload rides beside it as a
// shared net::Payload (net/fabric.hpp defines both).
#pragma once

#include <type_traits>

#include "sdrmpi/mpi/types.hpp"
#include "sdrmpi/net/fabric.hpp"

namespace sdrmpi::mpi {

using net::FrameHeader;
using net::FrameKind;
static_assert(std::is_same_v<decltype(FrameHeader::ctx), CommCtx>);

}  // namespace sdrmpi::mpi
