#ifndef ADGRAPH_NET_WIRE_H_
#define ADGRAPH_NET_WIRE_H_

/// \file
/// Wire-protocol vocabulary shared by the server, the client, the CLI and
/// the tests (DESIGN.md §2.10): the line-delimited JSON request/response
/// grammar's field mappings, snake_case status names, and the job-parameter
/// builder that the `serve-batch` job files and SUBMIT requests both go
/// through — one mapping, so a job submitted over the socket is the same
/// job a batch file line would produce (the byte-identity contract of the
/// loopback bench).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "graph/csr.h"
#include "net/json.h"
#include "prof/metrics.h"
#include "serve/flight_recorder.h"
#include "serve/job.h"
#include "trace/trace.h"
#include "util/numbers.h"
#include "util/status.h"

namespace adgraph::net {

/// Protocol revision sent in HELLO; the server rejects newer clients.
inline constexpr int kProtocolVersion = 1;

/// Default per-request line cap — a request longer than this is a protocol
/// error and drops the session (slow-loris / garbage-stream protection).
inline constexpr size_t kDefaultMaxLineBytes = 64 * 1024;

/// snake_case wire name of a StatusCode ("ok", "deadline_exceeded", ...).
std::string_view WireStatusName(StatusCode code);

/// Payload fingerprint as a fixed-width lowercase hex string — the form the
/// byte-identity checks compare across transports.
std::string FingerprintHex(uint64_t fingerprint);

/// Builds the per-algorithm params variant from string key/values (the
/// `ALGO key=value...` job-file vocabulary: source, iters, k, orient,
/// symmetric, fraction, seed).  A key the algorithm does not read,
/// malformed numeric values, integer params that fail CheckedInteger and a
/// `fraction` outside [0, 1] are kInvalidArgument naming the key — never
/// an exception, a silent wrap or a silent default; this parses untrusted
/// socket input.
Result<serve::JobParams> BuildJobParams(
    serve::Algorithm algo, const std::map<std::string, std::string>& kv,
    graph::vid_t num_vertices);

/// Maps one `ALGO key=value...` job-file line to a JobSpec over `graph`:
/// the scheduling keys `arch`, `devices` (gang size), `interconnect`
/// (preset name), `tag`, `tenant`, `priority`, `weight`, `deadline_ms`,
/// `ooc` (allow_streamed) and `shard_bytes` (ooc_shard_bytes); every other
/// key goes to BuildJobParams.  `devices`, `priority` and `shard_bytes` go
/// through CheckedInteger; every malformed value is kInvalidArgument.
/// Ranges the scheduler owns (a positive finite weight, a non-negative
/// deadline) are left to ValidateJobSpec at Submit.
Result<serve::JobSpec> BuildJobSpec(
    serve::Algorithm algo, const std::map<std::string, std::string>& kv,
    std::shared_ptr<const graph::CsrGraph> graph);

/// Maps one `ALGO key=value...` job-file line to the SUBMIT request the
/// `client` mode sends — BuildJobSpec's counterpart on the wire.  `graph`,
/// `arch` and `tag` become request fields, `deadline_ms` and `shard_bytes`
/// numbers (through ParseNumericValue, `shard_bytes` also CheckedInteger)
/// and `incremental` and `ooc` booleans (nonzero = true); every other key
/// is an algorithm param (BuildJobParams's vocabulary, checked by the
/// server).  Keys SUBMIT cannot carry are
/// kInvalidArgument naming the key: `devices` and `interconnect` (gangs do
/// not run over the wire) and `tenant`, `priority` and `weight` (HELLO's
/// tenant contract sets them).
Result<Json> BuildSubmitRequest(serve::Algorithm algo,
                                const std::map<std::string, std::string>& kv);

/// Appends one MUTATE update object (`op`, `u`, `v`, optional `w`) per
/// `U:V[:W]` spec of the comma-separated `specs` to the `updates` array.
/// Vertex ids go through CheckedInteger and the weight through
/// ParseNumericValue; a weight where `allow_weight` is false, or any
/// malformed spec, is kInvalidArgument.
Status AppendEdgeUpdates(const std::string& specs, const std::string& op,
                         bool allow_weight, Json* updates);

/// Splits a `HOST:PORT` endpoint (the CLI's --connect).  The host must be
/// non-empty and the port an integer in [1, 65535]; anything else is
/// kInvalidArgument.
Result<std::pair<std::string, uint16_t>> ParseEndpoint(
    const std::string& endpoint);

/// SUBMIT-request form of BuildJobParams: `params` is a JSON object with
/// number/string/bool values (null = no params).  Same keys, same defaults.
Result<serve::JobParams> JobParamsFromJson(serve::Algorithm algo,
                                           const Json* params,
                                           graph::vid_t num_vertices);

/// Serializes a finished job outcome into the POLL done-response fields
/// (status/code, device, modeled/queue/exec timings, fingerprint, ...),
/// including the job's trace identity ("trace_id"/"sched_job_id", §2.14)
/// and — when per-job profiling ran — the "profile" object.
Json OutcomeToJson(const serve::JobOutcome& outcome);

/// The "profile" object of a POLL/INSPECT response: the JobProfile's raw
/// counts, Table 6–style derived ratios, and the top-kernels array.
Json JobProfileToJson(const prof::JobProfile& profile);

/// One span as an INSPECT response array element: name, cat, track (id and
/// registered name), ts/dur microseconds, phase, and the args object
/// (numeric args as numbers).
Json TraceEventToJson(const trace::TraceEvent& event);

/// One flight-recorder record: identity (trace_id hex, wire/sched job
/// ids), classification, timings, the "profile" object and — when
/// `with_spans` — the captured span tree under "spans".
Json JobRecordToJson(const serve::FlightRecorder::JobRecord& record,
                     bool with_spans);

/// Builds the uniform error response: {"ok":false,"code":...,"error":...}.
Json ErrorResponse(const Status& status);
Json ErrorResponse(std::string_view code, std::string error);

}  // namespace adgraph::net

#endif  // ADGRAPH_NET_WIRE_H_
