/**
 * @file
 * JSON (de)serialization of SimConfig for the tcfill-svc-v3 service
 * protocol: every behavior-affecting knob configCacheKey() covers,
 * plus the cosmetic name. The round-trip invariant — parsing a
 * serialized config reproduces the exact configCacheKey() — is what
 * lets the daemon key its persistent store off configs that crossed
 * the wire (tested per knob in tests/test_service.cc).
 *
 * Parsing is strict but non-fatal: unknown members, missing members,
 * type mismatches and values the model cannot run (SimConfig::check)
 * are reported through the error string, never by aborting — a
 * daemon must survive malformed and hostile requests.
 */

#ifndef TCFILL_SIM_CONFIG_IO_HH
#define TCFILL_SIM_CONFIG_IO_HH

#include <string>

#include "sim/config.hh"

namespace tcfill
{

namespace obs
{
class JsonWriter;
struct JsonValue;
} // namespace obs

/** Emit @p cfg as one JSON object (all knobs, fixed key order). */
void configToJson(obs::JsonWriter &w, const SimConfig &cfg);

/**
 * Parse a configToJson() object into @p out (a default SimConfig plus
 * every serialized knob). Returns false with a description in @p err
 * on any unknown / missing / mistyped member or on a config
 * SimConfig::check() refuses; @p out is unspecified then.
 */
bool configFromJson(const obs::JsonValue &v, SimConfig &out,
                    std::string &err);

} // namespace tcfill

#endif // TCFILL_SIM_CONFIG_IO_HH
