#ifndef KANON_NET_FRAME_H_
#define KANON_NET_FRAME_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "service/request.h"
#include "util/status.h"

/// \file
/// The compact binary wire protocol of the TCP front end.
///
/// Each direction carries a stream of self-delimiting *frames* built
/// with the same envelope discipline as the `src/ckpt` snapshot codec
/// (magic, version, length prefix, trailing FNV-1a checksum) — that
/// codec is fuzz-hardened against every prefix, bit flip and garbage
/// blob, and this one inherits both the layout and the trust model:
///
/// **Trust model.** Bytes off a socket are *hostile* input: a peer may
/// be malicious, a proxy may truncate, a client library may be buggy.
/// Decoding never throws, never KANON_CHECKs on content, never lets a
/// wire-supplied length drive an allocation past `FrameLimits.max_body`,
/// and reports every violation as a typed `kParseError` — the network
/// analog of the checkpoint decoder's kDataLoss/kParseError split
/// collapses to kParseError because a socket has no "bytes did not
/// survive" excuse: either the frame is whole and well-formed, or the
/// peer is not speaking the protocol.
///
/// **Envelope** (all integers little-endian):
///
///     magic   "KNET"                      4 bytes
///     version u32 (currently 1)           4 bytes
///     length  u64 = len(body)             8 bytes
///     body    request or response fields  length bytes
///     check   u64 FNV-1a over everything above
///
/// **Request body:** verb u32, client_seq u64, then for kAnonymize:
/// algorithm (len-prefixed bytes), k u64, deadline_ms double,
/// node_budget u64, priority i64, flags u32 (bit0 = emit_csv), csv
/// (len-prefixed bytes, plain CSV with real newlines — no inline ';'
/// encoding needed on a binary transport), then the wrapper knobs:
/// coreset_rate double, coreset_seed u64, shards u64,
/// shard_parallelism u64. An anonymize body that ends after csv (the
/// layout before the knobs were carried) is torn, so it decodes to a
/// typed error rather than a request with default knobs.
/// kStats/kShutdown bodies end after client_seq.
///
/// **Response body:** verb u32, client_seq u64 (echo; 0 when the
/// request body was undecodable), job_id u64, code u32 (StatusCode),
/// error (len-prefixed taxonomy name, empty on success), message
/// (len-prefixed), then for a successful kAnonymize: k u64, rows u64,
/// cost u64, stage bytes, chain bytes, termination u32 (StopReason),
/// flags u32 (bit0 = cache_hit), queue_ms double, run_ms double, csv
/// bytes, effective backend bytes (empty when the brownout ladder left
/// the request untouched), brownout level u32 (0 = full fidelity).
/// A successful kStats carries the stats key=value line as one
/// len-prefixed payload (same text as the line protocol, one source of
/// truth for the counter names).

namespace kanon {

/// Decode-side allocation caps. A frame whose announced body length
/// exceeds `max_body` is rejected at the header, before any buffering.
struct FrameLimits {
  size_t max_body = size_t{8} << 20;  // 8 MiB
};

/// Bytes every frame spends on magic + version + length.
inline constexpr size_t kFrameHeaderBytes = 4 + 4 + 8;
/// Trailing checksum width.
inline constexpr size_t kFrameTrailerBytes = 8;

/// Wraps `body` in the envelope (magic, version, length, checksum).
std::string EncodeFrame(std::string_view body);

/// Outcome of examining the front of a receive buffer.
enum class FrameDecode {
  /// A whole frame was verified; *body and *consumed are set.
  kFrame,
  /// The buffer holds a valid but incomplete prefix; read more bytes.
  kNeedMore,
  /// The stream is not speaking the protocol; *error is the typed
  /// kParseError. Framing is lost — the connection cannot recover.
  kBad,
};

/// Streaming decoder: examines the front of `buffer` without copying.
/// On kFrame, *body views the verified body bytes inside `buffer` and
/// *consumed is the full frame size to drop. On kBad, *error carries
/// the typed kParseError. kNeedMore promises the already-seen prefix is
/// consistent (magic/version/length all valid so far), so a caller can
/// bound its receive buffer by max_body + envelope overhead.
FrameDecode TryDecodeFrame(std::string_view buffer,
                           const FrameLimits& limits,
                           std::string_view* body, size_t* consumed,
                           Status* error);

/// One-shot decode of exactly one complete frame (EOF semantics): a
/// prefix that TryDecodeFrame would wait on becomes a typed
/// kParseError, as do trailing bytes after the frame. Returns the body.
StatusOr<std::string> DecodeFrameExact(std::string_view bytes,
                                       const FrameLimits& limits = {});

/// Protocol verbs, mirroring the line protocol's anonymize|stats|
/// shutdown. Values are wire-stable; never renumber.
enum class NetVerb : uint32_t {
  kAnonymize = 1,
  kStats = 2,
  kShutdown = 3,
};

/// A decoded request frame. `request` is populated for kAnonymize only.
struct NetRequest {
  NetVerb verb = NetVerb::kAnonymize;
  /// Client-chosen correlation id, echoed verbatim on the response so a
  /// pipelining client can match answers to questions.
  uint64_t client_seq = 0;
  AnonymizeRequest request;
};

/// A decoded response frame. Exactly one wire shape, three payloads:
/// anonymize summaries, the stats line, or nothing (shutdown / errors).
struct NetResponse {
  NetVerb verb = NetVerb::kAnonymize;
  uint64_t client_seq = 0;
  uint64_t job_id = 0;
  /// kOk for answers; the ServiceError-mapped code for typed failures.
  StatusCode code = StatusCode::kOk;
  /// Taxonomy name ("queue_full", "bad_frame", ...); empty on success.
  std::string error_name;
  std::string message;
  // kAnonymize success payload.
  uint64_t k = 0;
  uint64_t rows = 0;
  uint64_t cost = 0;
  std::string stage;
  std::string chain;
  /// StopReason as a raw wire integer (hostile peers can send anything;
  /// keep it untyped and map through StopReasonName only when in range).
  uint32_t termination = 0;
  bool cache_hit = false;
  double queue_ms = 0.0;
  double run_ms = 0.0;
  std::string csv;
  /// Backend that actually produced the answer when the brownout ladder
  /// rewrote the job; empty = the requested backend ran untouched.
  std::string effective_algorithm;
  /// Brownout level the job executed under (0 green / full fidelity).
  uint32_t brownout = 0;
  // kStats success payload.
  std::string stats_line;

  bool ok() const { return code == StatusCode::kOk; }
};

/// Encoders return a complete frame (envelope included), ready to write.
std::string EncodeNetRequest(const NetRequest& request);
std::string EncodeNetResponse(const NetResponse& response);

/// Body decoders consume the verified body bytes a frame decoder
/// produced. Typed kParseError on any violation (unknown verb, torn
/// field, trailing bytes); never an exception, never an over-allocation
/// (all variable fields are views bounded by the body size).
StatusOr<NetRequest> DecodeNetRequest(std::string_view body);
StatusOr<NetResponse> DecodeNetResponse(std::string_view body);

/// Builds the wire response for an AnonymizeResponse (answer or typed
/// rejection — both carry the taxonomy name and mapped code).
NetResponse MakeNetResponse(NetVerb verb, uint64_t client_seq,
                            const AnonymizeResponse& response,
                            ServiceError error = ServiceError::kNone);

/// Builds a typed error response that never touched the service layer
/// (bad frame, connection limit, draining).
NetResponse MakeNetError(NetVerb verb, uint64_t client_seq,
                         ServiceError error, std::string message);

}  // namespace kanon

#endif  // KANON_NET_FRAME_H_
