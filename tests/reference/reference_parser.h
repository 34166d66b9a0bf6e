// The workload-file parser as it stood before its one-pass rewrite — a
// std::string per token, std::map lookups, an istringstream per number
// and per attribute list — kept verbatim as the oracle that
// tests/parser_test.cc and the parser fuzz harness check
// workload::ParseWorkload against. It exists to be obviously the old
// language, not fast.
//
// Contract production must meet: on every input the same verdict; on a
// rejection the same status code and message (line number included); on
// an acceptance the same tables, attributes, names and queries, with
// frequencies equal bit for bit.

#ifndef IDXSEL_TESTS_REFERENCE_REFERENCE_PARSER_H_
#define IDXSEL_TESTS_REFERENCE_REFERENCE_PARSER_H_

#include <string>

#include "common/status.h"
#include "workload/workload.h"

namespace idxsel::reference {

/// The reference parse of a workload description.
Result<workload::NamedWorkload> ReferenceParseWorkload(
    const std::string& text);

/// First difference between a production parse and the reference parse,
/// "" when they agree under the contract above.
std::string DiffParse(const Result<workload::NamedWorkload>& got,
                      const Result<workload::NamedWorkload>& want);

}  // namespace idxsel::reference

#endif  // IDXSEL_TESTS_REFERENCE_REFERENCE_PARSER_H_
