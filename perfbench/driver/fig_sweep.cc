/**
 * @file
 * fig_sweep: paper Fig. 4/5. One single-threaded Copy-While-Locked
 * queue trace, swept by granularitySweep over strict/epoch/strand/px86
 * x atomic-persist and tracking granularities 8..256 B.
 */

#include <memory>

#include "bench_util/queue_workload.hh"
#include "harness.hh"
#include "persistency/sweep.hh"

namespace perfbench {

using namespace persim;

namespace {

class FigSweep final : public Workload
{
  public:
    explicit FigSweep(const WorkloadParams &params)
    {
        queue_.kind = QueueKind::CopyWhileLocked;
        queue_.variant = AnnotationVariant::Conservative;
        queue_.threads = 1;
        queue_.inserts_per_thread =
            params.size == Size::Tiny ? 500 : 20000;
        queue_.seed = params.seed;
        sweep_.jobs = params.jobs;
    }

    void
    run(Batch &batch) override
    {
        InMemoryTrace trace;
        {
            Span span(batch.tracer, simSpan(queue_.threads, "queue"));
            runQueueWorkload(queue_, {&trace});
        }
        countSimEvents(batch, trace.size(), queue_.threads);
        batch.digest.mix(static_cast<std::uint64_t>(trace.size()));

        const std::pair<const char *, GranularityKnob> knobs[] = {
            {"atomic", GranularityKnob::AtomicPersist},
            {"tracking", GranularityKnob::Tracking},
        };
        for (const auto &[name, knob] : knobs) {
            std::vector<SweepSeries> series;
            {
                Span span(batch.tracer,
                          std::string("persistency:sweep/") + name);
                series = granularitySweep(trace, replayModels(),
                                          granularities_, knob, sweep_);
            }
            count(batch, series);
            if (batch.checks != nullptr)
                check(*batch.checks, trace, series, name, knob);
        }
    }

  private:
    void
    count(Batch &batch, const std::vector<SweepSeries> &series) const
    {
        for (const SweepSeries &entry : series) {
            for (const SweepPoint &point : entry.points) {
                const TimingResult &result = point.result;
                mixTiming(batch.digest, result);
                batch.counters.add("persistency.events",
                                   static_cast<double>(result.events));
                batch.counters.add("persistency.persists",
                                   static_cast<double>(result.persists));
                batch.counters.add("persistency.coalesced",
                                   static_cast<double>(result.coalesced));
                batch.counters.add("persistency.analyses", 1.0);
                // The sweep times each config itself; these sums
                // apportion the sweep span's wall time to px86.
                batch.counters.add("persistency.sweep_point_s",
                                   point.wall_seconds);
                if (entry.model.kind == ModelKind::Px86)
                    batch.counters.add("persistency.px86_point_s",
                                       point.wall_seconds);
                batch.attempted += 1;
                batch.work += 1.0;
            }
        }
    }

    /** Model order at every point, plus one serial reference replay
        per model at a granularity that rotates with the model. */
    void
    check(Checks &checks, const InMemoryTrace &trace,
          const std::vector<SweepSeries> &series, const char *knob_name,
          GranularityKnob knob) const
    {
        for (std::size_t g = 0; g < granularities_.size(); ++g) {
            checkModelOrder(checks,
                            std::string(knob_name) + "@" +
                                std::to_string(granularities_[g]),
                            series[0].points[g].result,
                            series[1].points[g].result,
                            series[2].points[g].result);
        }
        for (std::size_t m = 0; m < series.size(); ++m) {
            const std::size_t g = m % granularities_.size();
            ModelConfig model = series[m].model;
            if (knob == GranularityKnob::AtomicPersist)
                model.atomic_granularity = granularities_[g];
            else
                model.tracking_granularity = granularities_[g];
            PersistTimingEngine engine(bench::levels(model));
            trace.replay(engine);
            const std::string diff =
                diffTiming(series[m].points[g].result, engine.result());
            checks.expect(diff.empty(), "replay_matches_reference",
                          std::string(knob_name) + "@" +
                              std::to_string(granularities_[g]) +
                              " under " + model.name() + ":" + diff);
        }
    }

    QueueWorkloadConfig queue_;
    SweepOptions sweep_;
    std::vector<std::uint64_t> granularities_{8, 16, 32, 64, 128, 256};
};

} // namespace

std::unique_ptr<Workload>
makeFigSweep(const WorkloadParams &params)
{
    return std::make_unique<FigSweep>(params);
}

} // namespace perfbench
