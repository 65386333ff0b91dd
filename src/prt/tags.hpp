// Registry of the transport's reserved tag space.
//
// Application channel tags are assigned from 0 upward, independently per
// (source, destination) rank pair (paper: tag routing numbered per pair).
// The transport reserves the negative tags below for protocol traffic;
// before this registry existed each reserved value lived at its point of
// use, and nothing stopped user code from passing a negative tag that
// aliased ack traffic straight through the proxy. Every send-side entry
// point (Comm::isend, Reliable::send) now validates against this table,
// so a collision is a named error at send time instead of a mis-routed
// frame.
#pragma once

#include <string>

#include "common/error.hpp"

namespace pulsarqr::prt::net {

/// Tag of a pure (non-piggybacked) ack frame emitted by the Reliable
/// protocol: empty payload, never sequenced, consumed by the peer endpoint
/// and never routed to a channel.
constexpr int kPureAckTag = -1;

/// Application channel tags are numbered from here upward.
constexpr int kFirstUserTag = 0;

constexpr bool is_reserved_tag(int tag) { return tag == kPureAckTag; }

/// Name of a reserved tag's owner, or nullptr for a non-reserved value.
constexpr const char* reserved_tag_name(int tag) {
  return tag == kPureAckTag ? "reliable-protocol pure ack" : nullptr;
}

/// Validate a tag supplied for application (channel) traffic: it must sit
/// in the user tag space. Throws pulsarqr::Error naming the reserved owner
/// (or just the offending value) otherwise.
inline void require_user_tag(int tag, const char* where) {
  if (tag >= kFirstUserTag) return;
  const char* owner = reserved_tag_name(tag);
  throw Error(std::string(where) + ": tag " + std::to_string(tag) +
              (owner != nullptr
                   ? std::string(" is reserved for ") + owner + " traffic"
                   : " is negative; application tags are numbered from " +
                         std::to_string(kFirstUserTag)));
}

/// Tag gate shared by every Comm backend's isend: protocol traffic must
/// carry exactly its reserved tag, and application traffic must stay out
/// of the reserved (negative) range — a user-supplied negative tag would
/// otherwise alias ack handling on the receive side.
inline void check_send_tag(int tag, bool is_ack) {
  if (!is_ack) {
    require_user_tag(tag, "isend");
    return;
  }
  require(tag == kPureAckTag,
          "isend: an ack frame must use the reserved pure-ack tag " +
              std::to_string(kPureAckTag) + ", got " + std::to_string(tag));
}

}  // namespace pulsarqr::prt::net
