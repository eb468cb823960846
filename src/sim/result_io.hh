/**
 * @file
 * SimResult record (de)serialization for the service layer. A
 * *record* is the deterministic body of one result — exactly
 * SimResult::toJson(include_host=false) — rendered as a standalone
 * JSON object. Records are what the persistent result store holds and
 * what the tcfill-svc-v3 protocol ships, byte for byte, as a result
 * frame's body; resultFromJson() inverts them so a client can re-emit
 * a tcfill-stats-v1 document
 * byte-identical to one written from the freshly computed results
 * (double fields survive because obs::jsonNumber renders shortest
 * round-trip forms; derived fields — ipc, the frac* family, per-phase
 * IPC — are recomputed from the same integers).
 */

#ifndef TCFILL_SIM_RESULT_IO_HH
#define TCFILL_SIM_RESULT_IO_HH

#include <string>
#include <string_view>

#include "sim/result.hh"

namespace tcfill
{

namespace obs
{
struct JsonValue;
} // namespace obs

/** Render the deterministic record text of @p r (no trailing \n). */
std::string resultRecordText(const SimResult &r);

/**
 * Parse a record (or a full result object with a host section, which
 * is consumed and dropped) back into @p out. Returns false with a
 * description in @p err on unknown / missing / mistyped members.
 * resultRecordText(out) reproduces the input bytes exactly.
 */
bool resultFromJson(const obs::JsonValue &v, SimResult &out,
                    std::string &err);

/** Convenience: parse record text (resultFromJson over a parse). */
bool resultFromRecordText(std::string_view text, SimResult &out,
                          std::string &err);

} // namespace tcfill

#endif // TCFILL_SIM_RESULT_IO_HH
