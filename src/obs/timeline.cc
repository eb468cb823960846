#include "obs/timeline.hh"

#include "common/logging.hh"
#include "obs/json.hh"

namespace tcfill::obs
{

const char *
TimelineData::schema()
{
    return "tcfill-timeline-v1";
}

void
TimelineData::toJson(JsonWriter &w) const
{
    w.beginObject();
    w.field("schema", schema());
    w.field("interval", interval);
    w.field("phases", static_cast<std::uint64_t>(phases));
    w.beginArray("counters");
    for (const std::string &name : counters)
        w.value(name);
    w.endArray();
    w.beginArray("intervals");
    for (const TimelineInterval &iv : intervals) {
        w.beginObject();
        w.field("startInst", iv.startInst);
        w.field("insts", iv.insts);
        w.field("startCycle", iv.startCycle);
        w.field("cycles", iv.cycles);
        // Derived from the two integers above, so deterministic.
        w.field("ipc", iv.cycles == 0
                           ? 0.0
                           : static_cast<double>(iv.insts) /
                                 static_cast<double>(iv.cycles));
        w.field("phase", static_cast<std::int64_t>(iv.phase));
        if (maskTracked)
            w.field("passMask", static_cast<std::int64_t>(iv.passMask));
        w.beginArray("deltas");
        for (std::uint64_t d : iv.deltas)
            w.value(d);
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

Timeline::Timeline(const stats::Group &stats, InstSeqNum interval,
                   unsigned phases)
    : stats_(stats), phases_(phases),
      data_(std::make_shared<TimelineData>())
{
    panic_if(interval == 0, "timeline interval must be positive");
    data_->interval = interval;
    data_->phases = phases;
    data_->counters = stats.timingCounterNames();
    prev_.assign(data_->counters.size(), 0);
    scratch_.reserve(data_->counters.size());
}

void
Timeline::closeInterval(Cycle boundary_cycle)
{
    TimelineInterval iv;
    iv.startInst = data_cut_inst_;
    iv.insts = insts_ - data_cut_inst_;
    iv.startCycle = last_cut_cycle_;
    iv.cycles = boundary_cycle - last_cut_cycle_;
    if (mask_probe_)
        iv.passMask = *mask_probe_;

    scratch_.clear();
    stats_.timingCounterValues(scratch_);
    iv.deltas.resize(scratch_.size());
    for (std::size_t i = 0; i < scratch_.size(); ++i)
        iv.deltas[i] = scratch_[i] - prev_[i];
    prev_ = scratch_;

    if (phases_ > 0)
        interval_blocks_.push_back(blocks_.cut());

    data_->intervals.push_back(std::move(iv));
    data_cut_inst_ = insts_;
    last_cut_cycle_ = boundary_cycle;
}

void
Timeline::cut(Cycle now)
{
    // Boundary convention: a run capped at exactly this retired count
    // would report `now + 1` cycles (the retire-cycle probe's value),
    // so interval cycle spans tile the run's total exactly.
    closeInterval(now + 1);
}

void
Timeline::assignPhases()
{
    const std::size_t n = data_->intervals.size();
    if (phases_ == 0 || n == 0)
        return;

    std::vector<BbvPoint> pts(n);
    for (std::size_t i = 0; i < n; ++i) {
        pts[i] = projectBbv(interval_blocks_[i],
                            data_->intervals[i].insts);
    }
    const KmeansResult km = kmeansBbv(pts, phases_, kBbvSelectSeed);

    // Relabel clusters in first-appearance order so phase 0 is always
    // the run's opening phase regardless of centroid seeding order.
    std::vector<int> relabel(km.centroids.size(), -1);
    int next = 0;
    for (std::size_t i = 0; i < n; ++i) {
        int &label = relabel[km.assign[i]];
        if (label < 0)
            label = next++;
        data_->intervals[i].phase = label;
    }
}

std::shared_ptr<const TimelineData>
Timeline::finish(Cycle end_cycle)
{
    panic_if(!data_, "Timeline::finish() called twice");
    if (insts_ > data_cut_inst_)
        closeInterval(end_cycle);
    assignPhases();
    return std::move(data_);
}

} // namespace tcfill::obs
