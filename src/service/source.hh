/**
 * @file
 * The provenance-free record text of a SimResult: the bytes the
 * persistent store keeps and tcfill-svc-v3 result frames carry,
 * whichever cache layer served the result.
 */

#ifndef TCFILL_SERVICE_SOURCE_HH
#define TCFILL_SERVICE_SOURCE_HH

#include <string>

#include "sim/result.hh"

namespace tcfill::service
{

/**
 * Normalize @p r to the provenance-free record text the store (and
 * the tcfill-svc-v3 wire) carries: cacheHit forced to "computed" so
 * byte-identity of records never depends on which cache layer served
 * a particular run.
 */
std::string normalizedRecordText(const SimResult &r);

} // namespace tcfill::service

#endif // TCFILL_SERVICE_SOURCE_HH
