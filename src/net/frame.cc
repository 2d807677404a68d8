#include "net/frame.h"

#include <cstring>
#include <utility>

#include "ckpt/checkpoint.h"
#include "util/fingerprint.h"

namespace kanon {

namespace {

constexpr char kMagic[4] = {'K', 'N', 'E', 'T'};
constexpr uint32_t kVersion = 1;

void AppendU32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(char((v >> (8 * i)) & 0xff));
}

void AppendU64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(char((v >> (8 * i)) & 0xff));
}

uint32_t LoadU32(const char* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | uint8_t(p[i]);
  return v;
}

uint64_t LoadU64(const char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | uint8_t(p[i]);
  return v;
}

constexpr uint32_t kFlagEmitCsv = 1u << 0;
constexpr uint32_t kFlagCacheHit = 1u << 0;

bool KnownVerb(uint32_t v) {
  return v >= uint32_t(NetVerb::kAnonymize) && v <= uint32_t(NetVerb::kShutdown);
}

/// StatusCode values a response may legitimately carry; anything else off
/// the wire is a protocol violation, not a value to cast blindly.
bool KnownStatusCode(uint32_t v) {
  return v <= uint32_t(StatusCode::kUnavailable);
}

}  // namespace

std::string EncodeFrame(std::string_view body) {
  std::string out;
  out.reserve(kFrameHeaderBytes + body.size() + kFrameTrailerBytes);
  out.append(kMagic, sizeof(kMagic));
  AppendU32(out, kVersion);
  AppendU64(out, body.size());
  out.append(body);
  AppendU64(out, Fingerprint(out));
  return out;
}

FrameDecode TryDecodeFrame(std::string_view buffer,
                           const FrameLimits& limits,
                           std::string_view* body, size_t* consumed,
                           Status* error) {
  KANON_CHECK(body != nullptr && consumed != nullptr && error != nullptr);
  if (buffer.empty()) return FrameDecode::kNeedMore;
  // Magic is checked byte-by-byte so a stream that is not speaking the
  // protocol is rejected on its very first byte, not buffered until a
  // 16-byte header happens to accumulate.
  const size_t magic_seen = buffer.size() < 4 ? buffer.size() : 4;
  if (std::memcmp(buffer.data(), kMagic, magic_seen) != 0) {
    *error = Status::ParseError("bad frame magic");
    return FrameDecode::kBad;
  }
  if (buffer.size() < kFrameHeaderBytes) return FrameDecode::kNeedMore;

  const uint32_t version = LoadU32(buffer.data() + 4);
  if (version != kVersion) {
    *error = Status::ParseError("unsupported frame version " +
                                std::to_string(version));
    return FrameDecode::kBad;
  }
  const uint64_t body_len = LoadU64(buffer.data() + 8);
  // The announced length is validated before any buffering decision, so a
  // hostile 2^63 header can never drive an allocation.
  if (body_len > limits.max_body) {
    *error = Status::ParseError("frame body of " + std::to_string(body_len) +
                                " bytes exceeds cap of " +
                                std::to_string(limits.max_body));
    return FrameDecode::kBad;
  }
  const size_t total =
      kFrameHeaderBytes + size_t(body_len) + kFrameTrailerBytes;
  if (buffer.size() < total) return FrameDecode::kNeedMore;

  const size_t checked = kFrameHeaderBytes + size_t(body_len);
  const uint64_t want = Fingerprint(buffer.substr(0, checked));
  const uint64_t got = LoadU64(buffer.data() + checked);
  if (want != got) {
    *error = Status::ParseError("frame checksum mismatch");
    return FrameDecode::kBad;
  }
  *body = buffer.substr(kFrameHeaderBytes, size_t(body_len));
  *consumed = total;
  return FrameDecode::kFrame;
}

StatusOr<std::string> DecodeFrameExact(std::string_view bytes,
                                       const FrameLimits& limits) {
  std::string_view body;
  size_t consumed = 0;
  Status error;
  switch (TryDecodeFrame(bytes, limits, &body, &consumed, &error)) {
    case FrameDecode::kBad:
      return error;
    case FrameDecode::kNeedMore:
      return Status::ParseError("truncated frame: " +
                                std::to_string(bytes.size()) + " bytes");
    case FrameDecode::kFrame:
      break;
  }
  if (consumed != bytes.size()) {
    return Status::ParseError(
        "trailing bytes after frame: " +
        std::to_string(bytes.size() - consumed));
  }
  return std::string(body);
}

std::string EncodeNetRequest(const NetRequest& request) {
  CheckpointWriter w;
  w.PutU32(uint32_t(request.verb));
  w.PutU64(request.client_seq);
  if (request.verb == NetVerb::kAnonymize) {
    const AnonymizeRequest& r = request.request;
    w.PutBytes(r.algorithm);
    w.PutU64(r.k);
    w.PutDouble(r.deadline_ms);
    w.PutU64(r.node_budget);
    w.PutU64(uint64_t(int64_t(r.priority)));
    uint32_t flags = 0;
    if (r.emit_csv) flags |= kFlagEmitCsv;
    w.PutU32(flags);
    w.PutBytes(r.csv_text);
    w.PutDouble(r.coreset_rate);
    w.PutU64(r.coreset_seed);
    w.PutU64(r.shards);
    w.PutU64(r.shard_parallelism);
  }
  return EncodeFrame(w.bytes());
}

StatusOr<NetRequest> DecodeNetRequest(std::string_view body) {
  CheckpointReader r(body);
  const uint32_t verb = r.GetU32();
  if (!r.failed() && !KnownVerb(verb)) {
    return Status::ParseError("unknown request verb " + std::to_string(verb));
  }
  NetRequest req;
  req.verb = NetVerb(verb);
  req.client_seq = r.GetU64();
  if (req.verb == NetVerb::kAnonymize) {
    req.request.algorithm = std::string(r.GetBytes());
    req.request.k = size_t(r.GetU64());
    req.request.deadline_ms = r.GetDouble();
    req.request.node_budget = r.GetU64();
    req.request.priority = int(int64_t(r.GetU64()));
    const uint32_t flags = r.GetU32();
    req.request.emit_csv = (flags & kFlagEmitCsv) != 0;
    req.request.csv_text = std::string(r.GetBytes());
    req.request.coreset_rate = r.GetDouble();
    req.request.coreset_seed = r.GetU64();
    req.request.shards = size_t(r.GetU64());
    req.request.shard_parallelism = size_t(r.GetU64());
  }
  if (r.failed() || !r.AtEnd()) {
    return Status::ParseError("malformed request body");
  }
  return req;
}

std::string EncodeNetResponse(const NetResponse& response) {
  CheckpointWriter w;
  w.PutU32(uint32_t(response.verb));
  w.PutU64(response.client_seq);
  w.PutU64(response.job_id);
  w.PutU32(uint32_t(response.code));
  w.PutBytes(response.error_name);
  w.PutBytes(response.message);
  if (response.ok() && response.verb == NetVerb::kAnonymize) {
    w.PutU64(response.k);
    w.PutU64(response.rows);
    w.PutU64(response.cost);
    w.PutBytes(response.stage);
    w.PutBytes(response.chain);
    w.PutU32(response.termination);
    uint32_t flags = 0;
    if (response.cache_hit) flags |= kFlagCacheHit;
    w.PutU32(flags);
    w.PutDouble(response.queue_ms);
    w.PutDouble(response.run_ms);
    w.PutBytes(response.csv);
    w.PutBytes(response.effective_algorithm);
    w.PutU32(response.brownout);
  } else if (response.ok() && response.verb == NetVerb::kStats) {
    w.PutBytes(response.stats_line);
  }
  return EncodeFrame(w.bytes());
}

StatusOr<NetResponse> DecodeNetResponse(std::string_view body) {
  CheckpointReader r(body);
  const uint32_t verb = r.GetU32();
  if (!r.failed() && !KnownVerb(verb)) {
    return Status::ParseError("unknown response verb " + std::to_string(verb));
  }
  NetResponse resp;
  resp.verb = NetVerb(verb);
  resp.client_seq = r.GetU64();
  resp.job_id = r.GetU64();
  const uint32_t code = r.GetU32();
  if (!r.failed() && !KnownStatusCode(code)) {
    return Status::ParseError("unknown status code " + std::to_string(code));
  }
  resp.code = StatusCode(code);
  resp.error_name = std::string(r.GetBytes());
  resp.message = std::string(r.GetBytes());
  if (resp.ok() && resp.verb == NetVerb::kAnonymize) {
    resp.k = r.GetU64();
    resp.rows = r.GetU64();
    resp.cost = r.GetU64();
    resp.stage = std::string(r.GetBytes());
    resp.chain = std::string(r.GetBytes());
    resp.termination = r.GetU32();
    const uint32_t flags = r.GetU32();
    resp.cache_hit = (flags & kFlagCacheHit) != 0;
    resp.queue_ms = r.GetDouble();
    resp.run_ms = r.GetDouble();
    resp.csv = std::string(r.GetBytes());
    resp.effective_algorithm = std::string(r.GetBytes());
    resp.brownout = r.GetU32();
  } else if (resp.ok() && resp.verb == NetVerb::kStats) {
    resp.stats_line = std::string(r.GetBytes());
  }
  if (r.failed() || !r.AtEnd()) {
    return Status::ParseError("malformed response body");
  }
  return resp;
}

NetResponse MakeNetResponse(NetVerb verb, uint64_t client_seq,
                            const AnonymizeResponse& response,
                            ServiceError error) {
  NetResponse out;
  out.verb = verb;
  out.client_seq = client_seq;
  out.job_id = response.id;
  if (error == ServiceError::kNone) error = response.error;
  out.code = response.status.ok() ? StatusCode::kOk : response.status.code();
  if (!response.status.ok()) {
    out.error_name = ServiceErrorName(error);
    out.message = response.status.message();
    return out;
  }
  out.k = response.k;
  out.rows = response.rows;
  out.cost = response.cost;
  out.stage = response.stage;
  out.chain = response.chain;
  out.termination = uint32_t(response.termination);
  out.cache_hit = response.cache_hit;
  out.queue_ms = response.queue_ms;
  out.run_ms = response.run_ms;
  out.csv = response.anonymized_csv;
  out.effective_algorithm = response.effective_algorithm;
  out.brownout = uint32_t(response.brownout);
  return out;
}

NetResponse MakeNetError(NetVerb verb, uint64_t client_seq,
                         ServiceError error, std::string message) {
  NetResponse out;
  out.verb = verb;
  out.client_seq = client_seq;
  out.code = ServiceErrorCode(error);
  out.error_name = ServiceErrorName(error);
  out.message = std::move(message);
  return out;
}

}  // namespace kanon
