// Copyright (c) NetKernel reproduction authors.
// nklint: static checker for the NQE protocol contract.
//
// The NQE protocol spans five subsystems (GuestLib, CoreEngine, the NSM
// front-end and its transports, nkobs, the fault-injection suite) that must
// agree op-by-op on routing, completion pairing, chunk/credit reclaim, and
// observability coverage. nklint reads the machine-readable annotations on
// the NqeOp enumerators in src/shm/nqe.h (grammar documented there) and
// cross-checks them against the actual case labels, routing mentions, and
// registry calls in the tree — a lightweight lexer (comments, string
// literals, brace depth, case labels), not a C++ parse.
//
// Checks (suppress any of them with `// nklint-allow(<check>): reason` on the
// flagged line or the comment block directly above it):
//   op-annotation      every NqeOp enumerator carries a well-formed
//                      `// nklint:` annotation
//   op-name            every enumerator has a NqeOpName case in src/shm/nqe.cc
//   op-routing         dir=guest->nsm ops are mentioned by CoreEngine and
//                      dispatched by an NSM transport's Dispatch switch
//                      (ServiceLib or ShmServiceLib);
//                      dir=nsm->guest ops are reaped by GuestLib (receive-ring
//                      ops additionally classified by CoreEngine);
//                      dir=control ops are referenced somewhere in src/core/
//   reclaim-closure    carries-chunk request ops declare reclaim=<completion>
//                      and appear in CoreEngineShard::BuildErrorCompletion so
//                      a switch-side death cannot leak the chunk or credit
//   completion-pairing declared completion ops exist, flow nsm->guest, and
//                      ride the completion ring
//   stats-drift        every uint64_t field of a `// nklint: stats` struct is
//                      registered under a dotted name in some Register* call
//   flight-coverage    every FlightEventType has a name string and is emitted
//                      somewhere outside the recorder itself
//   switch-default     switches over NqeOp/CeOp have no `default:` arm, so
//                      -Wswitch keeps flagging unhandled ops at compile time
//   bad-suppression    (not suppressible) an nklint-allow names an unknown
//                      check or omits the reason
//   stale-suppression  (not suppressible) an nklint-allow suppresses no
//                      diagnostic, so the exception it documents is gone

#ifndef TOOLS_NKLINT_NKLINT_H_
#define TOOLS_NKLINT_NKLINT_H_

#include <string>
#include <vector>

namespace nklint {

struct Diagnostic {
  std::string file;  // path relative to the lint root
  int line = 0;
  std::string check;
  std::string message;
};

// "file:line: check: message" — the format CI greps and editors jump on.
std::string Format(const Diagnostic& d);

// True for the check names listed above (bad-suppression and
// stale-suppression excluded: they cannot be suppressed, so they are not
// valid nklint-allow arguments).
bool IsKnownCheck(const std::string& name);

// Runs every check over `root` (a directory containing src/). Returns
// diagnostics sorted by file then line; empty means the tree is clean.
std::vector<Diagnostic> Run(const std::string& root);

}  // namespace nklint

#endif  // TOOLS_NKLINT_NKLINT_H_
