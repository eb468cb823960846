#include "service/source.hh"

#include "sim/result_io.hh"

namespace tcfill::service
{

std::string
normalizedRecordText(const SimResult &r)
{
    if (r.cacheHit == "computed")
        return resultRecordText(r);
    SimResult norm = r;
    norm.cacheHit = "computed";
    return resultRecordText(norm);
}

} // namespace tcfill::service
