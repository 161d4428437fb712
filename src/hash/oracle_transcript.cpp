#include "hash/oracle_transcript.hpp"

#include <unordered_set>

namespace mpch::hash {

void OracleTranscript::append(OracleTranscript& log) {
  // One push_back per record keeps the doubling growth of recording
  // directly: a range insert sizes each reallocation from the current
  // size, and its last step can leave up to twice the needed capacity.
  for (auto& rec : log.records_) records_.push_back(std::move(rec));
  log.records_.clear();
}

void OracleTranscript::restore(std::vector<QueryRecord> records) {
  records_ = std::move(records);
}

std::vector<util::BitString> OracleTranscript::queries_of(std::uint64_t machine,
                                                          std::uint64_t round) const {
  std::vector<util::BitString> out;
  for (const auto& r : records_) {
    if (r.machine == machine && r.round == round) out.push_back(r.input);
  }
  return out;
}

std::vector<util::BitString> OracleTranscript::queries_up_to(std::uint64_t round) const {
  std::vector<util::BitString> out;
  for (const auto& r : records_) {
    if (r.round <= round) out.push_back(r.input);
  }
  return out;
}

std::size_t OracleTranscript::intersect_count(
    const std::vector<util::BitString>& transcript_inputs,
    const std::vector<util::BitString>& targets) const {
  // Membership probe only — nothing iterates, so hash order cannot leak
  // into any transcript or wire byte.
  std::unordered_set<util::BitString, util::BitStringHash> seen(  // lint:ordered-exempt
      transcript_inputs.begin(), transcript_inputs.end());
  std::size_t count = 0;
  for (const auto& t : targets) {
    if (seen.count(t)) ++count;
  }
  return count;
}

}  // namespace mpch::hash
