#include "guard/validate.h"

#include <cmath>
#include <map>
#include <sstream>
#include <tuple>

#include "skeleton/validate.h"

namespace psk::guard {

namespace {

// Reports are capped so a hostile input with a million bad events cannot
// balloon the report (and the exception message) without bound.
constexpr std::size_t kMaxIssues = 32;

// Matches the loop-nest depth cap of the sig text reader: anything deeper
// is either corrupt or would have been rejected at parse time anyway.
constexpr int kMaxNodeDepth = 256;

/// True for finite, non-negative values; false for negatives, NaN, and
/// infinities (which would otherwise poison downstream sim arithmetic).
bool nonneg(double value) { return std::isfinite(value) && value >= 0; }

class Checker {
 public:
  explicit Checker(std::string subject) { report_.subject = std::move(subject); }

  void error(const std::string& where, const std::string& message) {
    add(Issue::Severity::kError, where, message);
  }
  void warning(const std::string& where, const std::string& message) {
    add(Issue::Severity::kWarning, where, message);
  }

  /// Error unless `value` is finite and >= 0.
  void check_nonneg(const std::string& where, const char* field,
                    double value) {
    if (!nonneg(value)) {
      std::ostringstream msg;
      msg << field << " is " << value << " (must be finite and >= 0)";
      error(where, msg.str());
    }
  }

  ValidationReport take() { return std::move(report_); }

 private:
  void add(Issue::Severity severity, const std::string& where,
           const std::string& message) {
    if (report_.issues.size() >= kMaxIssues) {
      ++report_.suppressed;
      return;
    }
    report_.issues.push_back(Issue{severity, where, message});
  }

  ValidationReport report_;
};

std::string rank_where(int rank) {
  return "rank " + std::to_string(rank);
}

std::string event_where(int rank, std::size_t event) {
  return "rank " + std::to_string(rank) + " event " + std::to_string(event);
}

/// (src, dst, tag) -> message count, for send/recv pairing.
using ChannelCounts = std::map<std::tuple<int, int, int>, long long>;

void count_channel_ops(int rank, const trace::TraceEvent& event,
                       ChannelCounts& sends, ChannelCounts& recvs) {
  using mpi::CallType;
  switch (event.type) {
    case CallType::kSend:
    case CallType::kIsend:
      ++sends[{rank, event.peer, event.tag}];
      return;
    case CallType::kRecv:
    case CallType::kIrecv:
      ++recvs[{event.peer, rank, event.tag}];
      return;
    case CallType::kSendrecv:
    case CallType::kExchange:
      // Direction per part: outgoing means this rank sends to part.peer.
      for (const mpi::PeerBytes& part : event.parts) {
        if (part.outgoing) {
          ++sends[{rank, part.peer, part.tag}];
        } else {
          ++recvs[{part.peer, rank, part.tag}];
        }
      }
      return;
    default:
      return;  // collectives and waits carry no p2p channel
  }
}

void check_channel_balance(Checker& check, const ChannelCounts& sends,
                           const ChannelCounts& recvs) {
  for (const auto& [channel, sent] : sends) {
    const auto it = recvs.find(channel);
    const long long received = it == recvs.end() ? 0 : it->second;
    if (sent != received) {
      const auto& [src, dst, tag] = channel;
      std::ostringstream where;
      where << "channel " << src << "->" << dst << " tag " << tag;
      std::ostringstream msg;
      msg << sent << " send(s) vs " << received
          << " recv(s): replay would deadlock";
      check.error(where.str(), msg.str());
    }
  }
  for (const auto& [channel, received] : recvs) {
    if (sends.find(channel) != sends.end()) continue;
    const auto& [src, dst, tag] = channel;
    std::ostringstream where;
    where << "channel " << src << "->" << dst << " tag " << tag;
    std::ostringstream msg;
    msg << "0 send(s) vs " << received << " recv(s): replay would deadlock";
    check.error(where.str(), msg.str());
  }
}

/// Peer must be a valid rank for p2p ops; rooted collectives allow -1
/// (rootless) as well.  Waits carry no peer.
void check_peer(Checker& check, const std::string& where, mpi::CallType type,
                int peer, int nranks) {
  using mpi::CallType;
  const bool p2p = type == CallType::kSend || type == CallType::kRecv ||
                   type == CallType::kIsend || type == CallType::kIrecv ||
                   type == CallType::kSendrecv;
  if (p2p) {
    if (peer < 0 || peer >= nranks) {
      check.error(where, "peer " + std::to_string(peer) +
                             " outside world of " + std::to_string(nranks) +
                             " rank(s)");
    }
    return;
  }
  if (peer < -1 || peer >= nranks) {
    check.error(where, "root " + std::to_string(peer) +
                           " outside world of " + std::to_string(nranks) +
                           " rank(s)");
  }
}

template <typename Part>  // mpi::PeerBytes or sig::SigEvent::Part
void check_parts(Checker& check, const std::string& where,
                 const std::vector<Part>& parts, int nranks) {
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (parts[i].peer < 0 || parts[i].peer >= nranks) {
      check.error(where, "part " + std::to_string(i) + " peer " +
                             std::to_string(parts[i].peer) +
                             " outside world of " + std::to_string(nranks) +
                             " rank(s)");
    }
  }
}

// ------------------------------------------------------------ signatures

void check_sig_node(Checker& check, const std::string& where,
                    const sig::SigNode& node, int nranks, int depth) {
  if (depth > kMaxNodeDepth) {
    check.error(where, "loop nest deeper than " +
                           std::to_string(kMaxNodeDepth));
    return;
  }
  if (node.kind == sig::SigNode::Kind::kLoop) {
    if (node.iterations == 0) {
      check.error(where, "loop with 0 iterations");
    }
    if (node.body.empty()) {
      check.warning(where, "loop with empty body");
    }
    for (std::size_t i = 0; i < node.body.size(); ++i) {
      check_sig_node(check, where + " loop[" + std::to_string(i) + "]",
                     node.body[i], nranks, depth + 1);
    }
    return;
  }
  const sig::SigEvent& event = node.event;
  check_peer(check, where, event.type, event.peer, nranks);
  check_parts(check, where, event.parts, nranks);
  check.check_nonneg(where, "bytes", event.bytes);
  check.check_nonneg(where, "pre_compute", event.pre_compute);
  check.check_nonneg(where, "interior_compute", event.interior_compute);
  check.check_nonneg(where, "mean_duration", event.mean_duration);
  check.check_nonneg(where, "pre_mem_bytes", event.pre_mem_bytes);
  check.check_nonneg(where, "interior_mem_bytes", event.interior_mem_bytes);
  if (event.observations == 0) {
    check.warning(where, "event with 0 observations");
  }
}

void check_rank_signatures(Checker& check,
                           const std::vector<sig::RankSignature>& ranks) {
  const int nranks = static_cast<int>(ranks.size());
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const sig::RankSignature& rank = ranks[i];
    const std::string where = rank_where(rank.rank);
    if (rank.rank != static_cast<int>(i)) {
      check.error("rank index " + std::to_string(i),
                  "rank id " + std::to_string(rank.rank) +
                      " does not match its position");
      continue;
    }
    check.check_nonneg(where, "total_time", rank.total_time);
    check.check_nonneg(where, "final_compute", rank.final_compute);
    for (std::size_t r = 0; r < rank.roots.size(); ++r) {
      check_sig_node(check,
                     where + " root[" + std::to_string(r) + "]",
                     rank.roots[r], nranks, 0);
    }
  }
}

void check_skeleton_consistency(Checker& check,
                                const skeleton::Skeleton& skeleton) {
  const skeleton::ConsistencyReport consistency =
      skeleton::check_consistency(skeleton);
  if (!consistency.consistent) {
    check.error("channels",
                std::to_string(consistency.mismatched_channels) +
                    " mismatched channel(s): " + consistency.detail);
  }
}

std::string subject_name(const char* kind, const std::string& app) {
  std::string subject = kind;
  if (!app.empty()) subject += " '" + app + "'";
  return subject;
}

}  // namespace

bool ValidationReport::ok() const { return error_count() == 0; }

std::size_t ValidationReport::error_count() const {
  std::size_t count = suppressed;  // conservative: suppressed may be errors
  for (const Issue& issue : issues) {
    if (issue.severity == Issue::Severity::kError) ++count;
  }
  return count;
}

std::size_t ValidationReport::warning_count() const {
  std::size_t count = 0;
  for (const Issue& issue : issues) {
    if (issue.severity == Issue::Severity::kWarning) ++count;
  }
  return count;
}

std::string ValidationReport::render() const {
  std::ostringstream out;
  out << subject << ": " << error_count() << " error(s), "
      << warning_count() << " warning(s)";
  for (const Issue& issue : issues) {
    out << "\n  "
        << (issue.severity == Issue::Severity::kError ? "error" : "warning")
        << " [" << issue.where << "]: " << issue.message;
  }
  if (suppressed > 0) {
    out << "\n  ... " << suppressed << " further issue(s) suppressed";
  }
  return out.str();
}

ValidationError::ValidationError(ValidationReport report)
    : Error(report.render()), report_(std::move(report)) {}

void require_valid(const ValidationReport& report) {
  if (!report.ok()) throw ValidationError(report);
}

ValidationReport validate_trace(const trace::Trace& trace) {
  Checker check(subject_name("trace", trace.app_name));
  const int nranks = trace.rank_count();
  ChannelCounts sends;
  ChannelCounts recvs;
  // Collective invocation counts per rank, keyed by call type: every rank
  // must call each collective the same number of times or replay hangs.
  std::map<mpi::CallType, std::vector<long long>> collectives;
  for (std::size_t i = 0; i < trace.ranks.size(); ++i) {
    const trace::RankTrace& rank = trace.ranks[i];
    if (rank.rank != static_cast<int>(i)) {
      check.error("rank index " + std::to_string(i),
                  "rank id " + std::to_string(rank.rank) +
                      " does not match its position");
      continue;
    }
    const std::string where = rank_where(rank.rank);
    check.check_nonneg(where, "total_time", rank.total_time);
    check.check_nonneg(where, "final_compute", rank.final_compute);
    for (std::size_t e = 0; e < rank.events.size(); ++e) {
      const trace::TraceEvent& event = rank.events[e];
      const std::string ewhere = event_where(rank.rank, e);
      if (!(event.t_end >= event.t_start)) {
        std::ostringstream msg;
        msg << "t_end " << event.t_end << " before t_start "
            << event.t_start;
        check.error(ewhere, msg.str());
      }
      check.check_nonneg(ewhere, "pre_compute", event.pre_compute);
      check.check_nonneg(ewhere, "interior_compute", event.interior_compute);
      check.check_nonneg(ewhere, "pre_mem_bytes", event.pre_mem_bytes);
      check.check_nonneg(ewhere, "interior_mem_bytes",
                         event.interior_mem_bytes);
      check_peer(check, ewhere, event.type, event.peer, nranks);
      check_parts(check, ewhere, event.parts, nranks);
      count_channel_ops(rank.rank, event, sends, recvs);
      if (mpi::is_collective(event.type)) {
        auto& counts = collectives[event.type];
        counts.resize(trace.ranks.size(), 0);
        ++counts[i];
      }
    }
  }
  check_channel_balance(check, sends, recvs);
  for (const auto& [type, counts] : collectives) {
    for (std::size_t i = 1; i < counts.size(); ++i) {
      if (counts[i] != counts[0]) {
        check.error(rank_where(static_cast<int>(i)),
                    "calls " + mpi::call_type_name(type) + " " +
                        std::to_string(counts[i]) + " time(s) vs " +
                        std::to_string(counts[0]) + " on rank 0");
      }
    }
  }
  return check.take();
}

ValidationReport validate_signature(const sig::Signature& signature) {
  Checker check(subject_name("signature", signature.app_name));
  check.check_nonneg("header", "threshold", signature.threshold);
  check.check_nonneg("header", "compression_ratio",
                     signature.compression_ratio);
  check_rank_signatures(check, signature.ranks);
  // Channel balance: reuse the skeleton consistency checker over the same
  // rank forest (scaling_factor 1 leaves counts untouched).
  skeleton::Skeleton shim;
  shim.app_name = signature.app_name;
  shim.ranks = signature.ranks;
  check_skeleton_consistency(check, shim);
  return check.take();
}

ValidationReport validate_skeleton(const skeleton::Skeleton& skeleton) {
  Checker check(subject_name("skeleton", skeleton.app_name));
  if (!(skeleton.scaling_factor >= 1.0)) {
    std::ostringstream msg;
    msg << "scaling_factor is " << skeleton.scaling_factor
        << " (must be >= 1)";
    check.error("header", msg.str());
  }
  check.check_nonneg("header", "intended_time", skeleton.intended_time);
  check.check_nonneg("header", "min_good_time", skeleton.min_good_time);
  if (skeleton.ranks.empty()) {
    check.error("header", "no ranks (replay needs at least one)");
  }
  check_rank_signatures(check, skeleton.ranks);
  check_skeleton_consistency(check, skeleton);
  return check.take();
}

}  // namespace psk::guard
