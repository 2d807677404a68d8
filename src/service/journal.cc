#include "service/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "data/csv_table.h"
#include "fault/fault.h"
#include "util/fingerprint.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace kanon {

namespace {

/// 16-hex-digit rendering of a payload checksum.
std::string ChecksumHex(std::string_view payload) {
  static const char* kDigits = "0123456789abcdef";
  uint64_t fp = Fingerprint(payload);
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kDigits[fp & 0xf];
    fp >>= 4;
  }
  return out;
}

/// Splits a journal line into its payload, verifying the checksum.
/// Returns false on any structural or checksum mismatch.
bool ExtractPayload(const std::string& line, std::string_view* payload) {
  if (line.size() < 18 || line[16] != ' ') return false;
  const std::string_view checksum(line.data(), 16);
  *payload = std::string_view(line).substr(17);
  return ChecksumHex(*payload) == checksum;
}

}  // namespace

JobJournal::JobJournal(std::string path) : path_(std::move(path)) {
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) dead_ = true;
}

JobJournal::~JobJournal() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status JobJournal::Open() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0 || dead_) {
    return Status::Internal("journal '" + path_ + "' is not writable");
  }
  return Status::Ok();
}

void JobJournal::Append(const std::string& payload) {
  std::string line = ChecksumHex(payload);
  line += ' ';
  line += payload;
  line += '\n';
  std::lock_guard<std::mutex> lock(mu_);
  if (dead_ || fd_ < 0) return;
  // An injected fault tears this append: only a prefix reaches the file
  // and the journal goes dead, exactly as if the process crashed mid
  // write(). Replay must treat the torn tail as absent.
  if (KANON_FAULT_POINT("journal.append")) {
    const size_t torn = line.size() / 2;
    (void)::write(fd_, line.data(), torn);
    dead_ = true;
    return;
  }
  const ssize_t written =
      ::write(fd_, line.data(), static_cast<size_t>(line.size()));
  if (written != static_cast<ssize_t>(line.size()) || ::fsync(fd_) != 0) {
    dead_ = true;
    return;
  }
  ++appends_;
}

std::string JobJournal::AdmitPayload(const Job& job) {
  // ValidateAndPrepare has parsed the table by admission time; write it
  // back out so replay re-validates from first principles. csv= goes
  // last and runs to the end of the line, so values may hold spaces.
  const std::string csv = job.request.table.has_value()
                              ? TableToCsv(*job.request.table)
                              : job.request.csv_text;
  return "admit " + std::to_string(job.id) + " " +
         FormatRequestFields(job.request) + " csv=" + CsvToInline(csv);
}

void JobJournal::OnAdmit(const Job& job) { Append(AdmitPayload(job)); }

void JobJournal::OnStart(uint64_t id) {
  Append("start " + std::to_string(id));
}

void JobJournal::OnDone(uint64_t id, const AnonymizeResponse& response) {
  Append("done " + std::to_string(id) + " " +
         (response.ok() ? "ok" : ServiceErrorName(response.error)));
}

void JobJournal::OnCancel(uint64_t id) {
  Append("cancel " + std::to_string(id));
}

void JobJournal::OnCheckpoint(uint64_t id, uint64_t seq) {
  Append("ckpt " + std::to_string(id) + " " + std::to_string(seq));
}

uint64_t JobJournal::appends() const {
  std::lock_guard<std::mutex> lock(mu_);
  return appends_;
}

Status JobJournal::Reset(const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal("cannot reset journal '" + path + "'");
  }
  ::close(fd);
  return Status::Ok();
}

StatusOr<JournalReplay> JobJournal::ReplayFile(const std::string& path) {
  JournalReplay replay;
  std::ifstream in(path);
  if (!in.is_open()) return replay;  // first boot: nothing to replay

  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);

  // pending jobs in admission order; index into replay.pending by id.
  std::vector<uint64_t> order;
  std::unordered_map<uint64_t, ReplayedJob> open;

  for (size_t i = 0; i < lines.size(); ++i) {
    const bool is_tail = (i + 1 == lines.size());
    std::string_view payload;
    bool valid = ExtractPayload(lines[i], &payload);
    std::istringstream tokens{std::string(payload)};
    std::string verb;
    uint64_t id = 0;
    if (valid) {
      long long parsed_id = 0;
      std::string id_token;
      valid = static_cast<bool>(tokens >> verb >> id_token) &&
              ParseInt(id_token, &parsed_id) && parsed_id > 0;
      id = static_cast<uint64_t>(parsed_id);
    }
    if (valid) {
      if (verb == "admit") {
        ReplayedJob job;
        job.old_id = id;
        // "admit <id> <fields> csv=<inline csv>": the fields are a
        // request in the line protocol's syntax, and the CSV runs to the
        // end of the line.
        const size_t csv_pos = payload.find(" csv=");
        valid = csv_pos != std::string_view::npos;
        if (valid) {
          const size_t fields = payload.find(' ', 6);
          ServiceError error = ServiceError::kNone;
          StatusOr<AnonymizeRequest> request = ParseRequestLine(
              std::string(payload.substr(fields, csv_pos - fields)), &error);
          valid = request.ok();
          if (valid) {
            job.request = *std::move(request);
            job.request.csv_text =
                InlineToCsv(std::string(payload.substr(csv_pos + 5)));
          }
        }
        if (valid && open.emplace(id, std::move(job)).second) {
          order.push_back(id);
        }
      } else if (verb == "start") {
        const auto it = open.find(id);
        if (it != open.end()) it->second.started = true;
      } else if (verb == "cancel") {
        const auto it = open.find(id);
        if (it != open.end()) it->second.cancelled = true;
      } else if (verb == "ckpt") {
        std::string seq_token;
        long long seq = 0;
        valid = static_cast<bool>(tokens >> seq_token) &&
                ParseInt(seq_token, &seq) && seq > 0;
        if (valid) {
          const auto it = open.find(id);
          if (it != open.end() &&
              static_cast<uint64_t>(seq) > it->second.checkpoint_seq) {
            it->second.checkpoint_seq = static_cast<uint64_t>(seq);
          }
        }
      } else if (verb == "done") {
        if (open.erase(id) > 0) ++replay.completed;
      } else {
        valid = false;
      }
    }
    if (!valid) {
      if (is_tail) {
        // A single torn line at EOF is the crash signature we are built
        // for; drop it. Its transition never "happened".
        ++replay.torn_records;
        break;
      }
      return Status::ParseError("journal '" + path +
                                "' is corrupt at record " +
                                std::to_string(i + 1) +
                                " (not a torn tail); refusing to replay");
    }
  }

  replay.pending.reserve(order.size());
  for (const uint64_t id : order) {
    const auto it = open.find(id);
    if (it != open.end()) replay.pending.push_back(std::move(it->second));
  }
  return replay;
}

}  // namespace kanon
