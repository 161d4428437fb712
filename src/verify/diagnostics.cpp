#include "verify/diagnostics.hpp"

#include <algorithm>

namespace mpch::verify {

const char* severity_name(Severity severity) {
  switch (severity) {
    case Severity::kError: return "error";
    case Severity::kWarning: return "warning";
    case Severity::kNote: return "note";
  }
  return "unknown";
}

const char* finding_kind_name(FindingKind kind) {
  switch (kind) {
    case FindingKind::kEmptyProgram: return "empty-program";
    case FindingKind::kTruncatedProgram: return "truncated-program";
    case FindingKind::kBadOpcode: return "bad-opcode";
    case FindingKind::kBadRegister: return "bad-register";
    case FindingKind::kBadJumpTarget: return "bad-jump-target";
    case FindingKind::kFallsOffEnd: return "falls-off-end";
    case FindingKind::kUnreachableCode: return "unreachable-code";
    case FindingKind::kUseBeforeDef: return "use-before-def";
    case FindingKind::kIrreducibleFlow: return "irreducible-flow";
    case FindingKind::kUnboundedLoop: return "unbounded-loop";
    case FindingKind::kOobLoad: return "oob-load";
    case FindingKind::kOobStore: return "oob-store";
    case FindingKind::kNonReplayable: return "non-replayable";
  }
  return "unknown";
}

std::string Finding::to_string() const {
  return std::string("[").append(severity_name(severity)).append("/")
      .append(finding_kind_name(kind)).append("] pc ").append(std::to_string(pc)).append(": ")
      .append(message);
}

bool has_errors(const std::vector<Finding>& findings) {
  return std::any_of(findings.begin(), findings.end(),
                     [](const Finding& f) { return f.severity == Severity::kError; });
}

bool has_warnings(const std::vector<Finding>& findings) {
  return std::any_of(findings.begin(), findings.end(),
                     [](const Finding& f) { return f.severity == Severity::kWarning; });
}

}  // namespace mpch::verify
