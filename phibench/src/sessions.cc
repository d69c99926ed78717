/**
 * @file
 * sessions_wire: stateful temporal streams over TCP loopback. A chained
 * 3-layer spiking MLP (1024 -> 512 -> 256 -> 128) is calibrated layer
 * by layer on the spikes the layer below really emits, compiled, saved
 * to .phim, loaded, and hosted by an in-process PhiServer with the
 * engine configuration phi_serve ships. Closed-loop PhiClient
 * connections step their sessions 8 frames per call; every returned
 * raster is checked against an offline replay of the session's frames
 * (the benchmark's own A·W per layer, then LifPopulation).
 */

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "common/rng.hh"
#include "core/pipeline.hh"
#include "io/model_io.hh"
#include "io/serialize.hh"
#include "net/client.hh"
#include "net/protocol.hh"
#include "net/server.hh"
#include "runtime/registry.hh"
#include "runtime/session.hh"
#include "snn/activation_gen.hh"
#include "snn/lif.hh"
#include "snn/model_zoo.hh"
#include "workloads.hh"

namespace phibench
{

namespace
{

constexpr uint64_t kModelSeed = 0x4d4c5033ull;
constexpr const char* kModelName = "mlp";
constexpr size_t kWidths[] = {1024, 512, 256, 128};
constexpr size_t kLayers = 3;
const char* const kLayerNames[kLayers] = {"l0", "l1", "l2"};

constexpr size_t kFramesPerCall = 8;
constexpr size_t kConnections = 4;
constexpr size_t kSessionsPerConnection = 16;
constexpr size_t kFramePool = 4096;

/** Calibration streams x timesteps the thresholds are fitted on. */
constexpr size_t kCalibStreams = 64;
constexpr size_t kCalibSteps = 32;
/** Spike density every layer's LIF threshold is fitted to. */
constexpr double kTargetSpikeDensity = 0.10;

struct MlpModel
{
    std::vector<phi::Matrix<int16_t>> weights;
    std::vector<phi::LifParams> lif;
    std::vector<double> spikeDensity; // per layer, on calibration data
};

/** Run LIF over stream-major currents (row = stream * steps + t). */
phi::BinaryMatrix
lifOverStreams(const phi::Matrix<int32_t>& currents, size_t streams,
               size_t steps, const phi::LifParams& params)
{
    phi::BinaryMatrix spikes(currents.rows(), currents.cols());
    for (size_t s = 0; s < streams; ++s) {
        phi::LifPopulation pop(currents.cols(), params);
        for (size_t t = 0; t < steps; ++t)
            pop.stepInto(currents.rowPtr(s * steps + t), spikes,
                         s * steps + t);
    }
    return spikes;
}

/**
 * Calibrate each layer on the spikes the layer below emits, fitting a
 * LIF threshold per layer so its spike density is kTargetSpikeDensity.
 */
MlpModel
buildModel(const phi::ExecutionConfig& exec, const std::string& path,
           phi::ModelRegistry& registry, Tracer& tracer, uint64_t parent,
           const phi::ClusteredSpikeGenerator& frames, SetupTimes& times)
{
    MlpModel mm;
    {
        phi::Pipeline pipe(calibrationConfig(exec));
        auto t0 = Clock::now();
        {
            Span span(tracer, "setup.calibrate", parent);
            phi::Rng rng(kModelSeed);
            phi::BinaryMatrix input =
                frames.generate(kCalibStreams * kCalibSteps, rng);
            for (size_t l = 0; l < kLayers; ++l) {
                pipe.addLayer(kLayerNames[l], {&input});
                mm.weights.push_back(randomWeights(
                    kWidths[l], kWidths[l + 1], kModelSeed + 17 * (l + 1)));
                const phi::Matrix<int32_t> cur =
                    referenceProduct(input, mm.weights[l]);
                phi::LifParams p;
                p.leak = 0.5f;
                double lo = 1, hi = 1 << 16;
                for (int it = 0; it < 24; ++it) {
                    p.threshold = static_cast<float>((lo + hi) / 2);
                    const double d =
                        lifOverStreams(cur, kCalibStreams, kCalibSteps, p)
                            .density();
                    (d > kTargetSpikeDensity ? lo : hi) = p.threshold;
                }
                p.threshold = static_cast<float>(hi);
                input = lifOverStreams(cur, kCalibStreams, kCalibSteps, p);
                mm.lif.push_back(p);
                mm.spikeDensity.push_back(input.density());
            }
        }
        times.calibrate = secondsBetween(t0, Clock::now());

        t0 = Clock::now();
        phi::CompiledModel model;
        {
            Span span(tracer, "setup.compile", parent);
            for (size_t l = 0; l < kLayers; ++l)
                pipe.layer(l).bindWeights(mm.weights[l]);
            model = pipe.compile();
        }
        times.compile = secondsBetween(t0, Clock::now());
        times.pwpResidentMb =
            static_cast<double>(model.pwpResidentBytes()) / (1 << 20);

        t0 = Clock::now();
        {
            Span span(tracer, "setup.save", parent);
            phi::io::saveModel(model, path);
        }
        times.save = secondsBetween(t0, Clock::now());
    }
    const auto t0 = Clock::now();
    {
        Span span(tracer, "setup.load", parent);
        registry.load(kModelName, path);
    }
    times.load = secondsBetween(t0, Clock::now());
    return mm;
}

/** One session's stream: the frames it was sent and what came back. */
struct Stream
{
    uint64_t id = 0;
    phi::Rng rng;
    uint64_t sent = 0;                // frames acknowledged so far
    std::vector<uint32_t> frameIds;   // pool index of every frame sent
    std::vector<phi::BinaryMatrix> rasters; // one per call
    bool broken = false;              // a call failed: no replay
};

/** The step calls of one closed-loop window. */
struct Window
{
    Timeline calls;

    /** Frames per second, all sessions, median over slices. */
    double rate() const
    {
        return calls.sliceMedian([](const std::vector<double>& ms,
                                    double sliceS) {
            return static_cast<double>(ms.size() * kFramesPerCall) / sliceS;
        });
    }
};

/** The next call's frames of @p s, drawn from the pool. */
phi::BinaryMatrix
nextFrames(Stream& s, const phi::BinaryMatrix& pool)
{
    phi::BinaryMatrix f(kFramesPerCall, pool.cols());
    for (size_t t = 0; t < kFramesPerCall; ++t) {
        const uint32_t idx =
            static_cast<uint32_t>(s.rng.nextBounded(pool.rows()));
        s.frameIds.push_back(idx);
        copyRow(pool, idx, f, t);
    }
    return f;
}

/**
 * Run @p streams (split evenly over @p clients threads) closed-loop for
 * @p seconds. @p step performs one call and returns the raster and the
 * reported firstStep. Results land in the streams; counts in @p report.
 */
template <typename OpenClient, typename StepFn>
void
runWindow(std::vector<Stream>& streams, size_t clients, double seconds,
          const phi::BinaryMatrix& pool, OpenClient&& openClient,
          StepFn&& step, Tracer& tracer, Window& w, Report& report,
          std::mutex& reportMu)
{
    std::vector<Timeline> calls(clients);
    const auto start = Clock::now();
    const auto deadline = start + std::chrono::duration<double>(seconds);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c)
        threads.emplace_back([&, c] {
            auto client = openClient(c);
            const uint64_t clientSpan = tracer.begin("client", 0, c);
            const size_t per = streams.size() / clients;
            for (size_t i = 0; Clock::now() < deadline;
                 i = (i + 1) % per) {
                Stream& s = streams[c * per + i];
                if (s.broken)
                    continue;
                const phi::BinaryMatrix f = nextFrames(s, pool);
                const uint64_t span =
                    tracer.begin("step_call", clientSpan, s.id);
                const auto t0 = Clock::now();
                uint64_t firstStep = 0;
                phi::BinaryMatrix raster;
                bool ok = true;
                std::string err;
                try {
                    raster = step(client, s.id, f, firstStep);
                } catch (const std::exception& e) {
                    ok = false;
                    err = e.what();
                }
                const auto t1 = Clock::now();
                tracer.end(span);
                std::lock_guard<std::mutex> lock(reportMu);
                report.attempted += 1;
                if (!ok) {
                    report.failed += 1;
                    s.broken = true;
                    if (report.failed <= 3)
                        std::fprintf(stderr, "phibench: step failed: %s\n",
                                     err.c_str());
                    continue;
                }
                calls[c].add(secondsBetween(start, t1),
                             secondsBetween(t0, t1) * 1e3);
                if (firstStep != s.sent)
                    report.fail("session " + std::to_string(s.id) +
                                ": firstStep " + std::to_string(firstStep) +
                                " but " + std::to_string(s.sent) +
                                " frames were already sent");
                s.sent += kFramesPerCall;
                s.rasters.push_back(std::move(raster));
            }
            tracer.end(clientSpan);
        });
    for (auto& t : threads)
        t.join();
    w.calls.seconds = seconds;
    for (const Timeline& c : calls)
        w.calls.merge(c);
}

/** Layer inputs and currents kept from the replay for the probes. */
struct ReplaySample
{
    std::vector<std::vector<phi::BinaryMatrix>> inputRows; // [layer]
    std::vector<std::vector<std::vector<int32_t>>> currents;   // [layer]
};

/**
 * Replay @p s offline — the benchmark's A·W per layer, then
 * LifPopulation with the session's params — and compare every raster.
 */
void
replay(const Stream& s, const phi::BinaryMatrix& pool, const MlpModel& mm,
       Report& report, std::mutex& reportMu, ReplaySample* sample,
       size_t sampleRows)
{
    std::vector<phi::LifPopulation> pops;
    for (size_t l = 0; l < kLayers; ++l)
        pops.emplace_back(kWidths[l + 1], mm.lif[l]);
    std::vector<int32_t> cur(kWidths[1]);
    for (size_t call = 0; call < s.rasters.size(); ++call) {
        phi::BinaryMatrix expect(kFramesPerCall, kWidths[kLayers]);
        for (size_t t = 0; t < kFramesPerCall; ++t) {
            const uint32_t idx = s.frameIds[call * kFramesPerCall + t];
            phi::BinaryMatrix in(1, kWidths[0]);
            copyRow(pool, idx, in, 0);
            for (size_t l = 0; l < kLayers; ++l) {
                referenceRow(in, 0, mm.weights[l], cur.data());
                if (sample && sample->inputRows[l].size() < sampleRows) {
                    sample->inputRows[l].push_back(in);
                    sample->currents[l].emplace_back(
                        cur.begin(), cur.begin() + kWidths[l + 1]);
                }
                phi::BinaryMatrix out(1, kWidths[l + 1]);
                pops[l].stepInto(cur.data(), out, 0);
                in = std::move(out);
            }
            copyRow(in, 0, expect, t);
        }
        if (!(expect == s.rasters[call])) {
            std::lock_guard<std::mutex> lock(reportMu);
            report.fail("session " + std::to_string(s.id) + " call " +
                        std::to_string(call) +
                        ": raster differs from the offline replay");
        }
    }
}

/** Replay every unbroken stream on one thread per CPU. */
void
replayAll(const std::vector<Stream>& streams, const phi::BinaryMatrix& pool,
          const MlpModel& mm, Report& report, std::mutex& reportMu,
          ReplaySample* sample, size_t sampleRows)
{
    const size_t workers = std::min(hostCpus(), streams.size());
    std::vector<std::thread> threads;
    for (size_t w = 0; w < workers; ++w)
        threads.emplace_back([&, w] {
            for (size_t i = w; i < streams.size(); i += workers)
                if (!streams[i].broken)
                    replay(streams[i], pool, mm, report, reportMu,
                           w == 0 ? sample : nullptr, sampleRows);
        });
    for (auto& t : threads)
        t.join();
}

/** Stack @p count one-row matrices starting at @p first. */
phi::BinaryMatrix
rowsToMatrix(const std::vector<phi::BinaryMatrix>& rows, size_t first,
             size_t count, size_t cols)
{
    phi::BinaryMatrix m(count, cols);
    for (size_t r = 0; r < count; ++r)
        copyRow(rows[first + r], 0, m, r);
    return m;
}

} // namespace

void
runSessions(const Options& opt, Report& report)
{
    Tracer tracer(opt.trace);
    std::mutex reportMu;
    phi::ExecutionConfig exec;
    exec.threads = static_cast<int>(hostCpus());
    const size_t clients = std::min(kConnections, hostCpus());

    // ---- set-up: process start -> the server accepts sessions -------
    const std::string path = opt.outDir + "/" + opt.workload + "-" +
                             std::to_string(::getpid()) + ".phim";
    SetupTimes times;
    const uint64_t setupSpan = tracer.begin("setup");
    const phi::ModelSpec vggSpec =
        phi::makeModel(phi::ModelId::VGG16, phi::DatasetId::CIFAR100);
    const phi::ClusteredSpikeGenerator frameGen(
        phi::ClusterGenConfig::fromProfile(vggSpec.profile, 16), kWidths[0],
        kModelSeed ^ 0x51ull);
    auto registry = std::make_shared<phi::ModelRegistry>();
    const MlpModel mm = buildModel(exec, path, *registry, tracer, setupSpan,
                                   frameGen, times);

    // The engine configuration tools/phi_serve ships.
    phi::AsyncEngineConfig engineCfg;
    engineCfg.maxBatch = 32;
    engineCfg.maxQueueDepth = 1024;
    engineCfg.backpressure = phi::AsyncEngineConfig::Backpressure::Reject;
    phi::net::PhiServerConfig serverCfg;
    serverCfg.bindAddress = "127.0.0.1";
    serverCfg.port = 0;
    phi::net::PhiServer server(registry, exec, engineCfg, serverCfg);
    {
        Span span(tracer, "setup.server_start", setupSpan);
        server.start();
    }
    const uint16_t port = server.port();
    times.total = sinceProcessStart();
    tracer.end(setupSpan);
    std::remove(path.c_str());

    std::printf("model: widths 1024-512-256-128, lif leak 0.5, thresholds "
                "%.1f %.1f %.1f, calibration spike densities %.4f %.4f "
                "%.4f; clients=%zu sessions=%zu\n",
                mm.lif[0].threshold, mm.lif[1].threshold,
                mm.lif[2].threshold, mm.spikeDensity[0],
                mm.spikeDensity[1], mm.spikeDensity[2], clients,
                clients * kSessionsPerConnection);

    phi::Rng traffic(opt.seed * 0x9e3779b97f4a7c15ull + 0x7654321ull);
    const phi::BinaryMatrix pool = frameGen.generate(kFramePool, traffic);
    auto makeStreams = [&] {
        std::vector<Stream> streams(clients * kSessionsPerConnection);
        for (Stream& s : streams)
            s.rng = phi::Rng(traffic.next());
        return streams;
    };

    // Sessions are opened on the connection that later steps them.
    std::vector<Stream> wire = makeStreams();
    std::vector<std::unique_ptr<phi::net::PhiClient>> conns;
    for (size_t c = 0; c < clients; ++c) {
        conns.push_back(
            std::make_unique<phi::net::PhiClient>("127.0.0.1", port));
        for (size_t i = 0; i < kSessionsPerConnection; ++i)
            wire[c * kSessionsPerConnection + i].id =
                conns[c]->openSession(kModelName, mm.lif).sessionId;
    }
    auto openWire = [&](size_t c) { return conns[c].get(); };
    auto wireStep = [&](phi::net::PhiClient* client, uint64_t id,
                        const phi::BinaryMatrix& f, uint64_t& firstStep) {
        phi::net::WireSessionStepped r = client->stepSession(id, f);
        firstStep = r.firstStep;
        return std::move(r.spikes);
    };

    Window w;
    runWindow(wire, clients, opt.seconds, pool, openWire, wireStep, tracer, w,
              report, reportMu);
    const phi::ServingStats engineStats = server.engine().stats();
    const phi::ServingStats sessionStats = server.sessions().stats();

    for (size_t c = 0; c < clients; ++c) {
        for (size_t i = 0; i < kSessionsPerConnection; ++i) {
            const Stream& s = wire[c * kSessionsPerConnection + i];
            const uint64_t steps = conns[c]->closeSession(s.id).steps;
            if (!s.broken && steps != s.sent)
                report.fail("session " + std::to_string(s.id) +
                            ": closeSession reports " +
                            std::to_string(steps) + " steps, " +
                            std::to_string(s.sent) + " frames were sent");
        }
        conns[c]->close();
    }
    conns.clear();

    if (opt.injectFault && !wire.front().rasters.empty()) {
        phi::BinaryMatrix& r = wire.front().rasters.front();
        r.set(0, 0, !r.get(0, 0));
    }

    // In-process reference stream (traced run): the same closed loop
    // through SessionManager::step, no wire.
    Window inproc;
    std::vector<Stream> local;
    if (opt.trace) {
        local = makeStreams();
        for (Stream& s : local)
            s.id = server.sessions().open(kModelName, mm.lif);
        tracer.enable(false);
        auto openLocal = [&](size_t) { return &server.sessions(); };
        auto localStep = [&](phi::SessionManager* mgr, uint64_t id,
                             const phi::BinaryMatrix& f,
                             uint64_t& firstStep) {
            phi::SessionStepResult r = mgr->step(id, f).get();
            firstStep = r.firstStep;
            return std::move(r.spikes);
        };
        runWindow(local, clients, opt.seconds / 4, pool, openLocal,
                  localStep, tracer, inproc, report, reportMu);
        for (const Stream& s : local)
            if (server.sessions().close(s.id) != s.sent && !s.broken)
                report.fail("in-process session " + std::to_string(s.id) +
                            ": close reports a step count other than the "
                            "frames sent");
    }
    server.requestDrain();
    server.waitUntilStopped();

    // ---- output checks: offline replay of every stream -------------
    ReplaySample sample;
    sample.inputRows.resize(kLayers);
    sample.currents.resize(kLayers);
    constexpr size_t kSampleRows = 2048;
    replayAll(wire, pool, mm, report, reportMu,
              opt.trace ? &sample : nullptr, kSampleRows);
    replayAll(local, pool, mm, report, reportMu, nullptr, 0);

    if (!opt.trace) {
        report.add("setup_s", times.total, "s");
        report.add("peak_rss_mb", peakRssMb(), "MB");
        report.add("served_per_s", w.rate(), "1/s");
        std::printf("calls=%zu steps_per_s=%.1f p50_ms=%.3f p90_ms=%.3f "
                    "setup_s=%.3f\n",
                    w.calls.ms.size(), w.rate(), percentile(w.calls.ms, 50),
                    percentile(w.calls.ms, 90), times.total);
        return;
    }

    // ---- traced run: per-layer metrics --------------------------------
    const double rowsPerRound =
        engineStats.requests ? static_cast<double>(engineStats.rows) /
                                   static_cast<double>(engineStats.requests)
                             : 0;
    const size_t batchRows =
        std::max<size_t>(1, static_cast<size_t>(rowsPerRound + 0.5));
    const auto pin = registry->pin(kModelName);
    std::vector<LayerProbe> probes;
    double lifUs = 0;
    for (size_t l = 0; l < kLayers; ++l) {
        const auto& rows = sample.inputRows[l];
        std::vector<phi::BinaryMatrix> batches;
        std::vector<phi::Matrix<int32_t>> refs;
        for (size_t b = 0; (b + 1) * batchRows <= rows.size() && b < 64; ++b) {
            batches.push_back(
                rowsToMatrix(rows, b * batchRows, batchRows, kWidths[l]));
            refs.push_back(referenceProduct(batches.back(), mm.weights[l]));
        }
        std::vector<const phi::BinaryMatrix*> in;
        std::vector<const phi::Matrix<int32_t>*> rp;
        for (size_t b = 0; b < batches.size(); ++b) {
            in.push_back(&batches[b]);
            rp.push_back(&refs[b]);
        }
        const uint64_t ps = tracer.begin("probe", 0, l);
        probes.push_back(probeLayer(pin->layer(l), mm.weights[l], in, rp,
                                    exec, report));
        tracer.end(ps);

        // LIF: one stepInto per frame of this layer's population.
        const auto& cur = sample.currents[l];
        lifUs += medianUs(5, [&] {
            phi::LifPopulation pop(kWidths[l + 1], mm.lif[l]);
            phi::BinaryMatrix spikes(1, kWidths[l + 1]);
            for (const auto& row : cur)
                pop.stepInto(row.data(), spikes, 0);
        }) / static_cast<double>(std::max<size_t>(1, cur.size()));
    }
    // Wire codec: one 8-frame step call and its reply.
    phi::net::WireStepSession stepMsg;
    stepMsg.id = 1;
    stepMsg.sessionId = 1;
    stepMsg.frames = rowsToMatrix(sample.inputRows[0], 0, kFramesPerCall,
                                  kWidths[0]);
    phi::net::WireSessionStepped reply;
    reply.id = 1;
    reply.sessionId = 1;
    reply.spikes = wire.front().rasters.empty()
                       ? phi::BinaryMatrix(kFramesPerCall, kWidths[kLayers])
                       : wire.front().rasters.front();
    std::vector<uint8_t> reqFrame, respFrame;
    const double encodeUs = medianUs(101, [&] {
        phi::io::ByteWriter a, b;
        phi::net::encodeStepSession(a, stepMsg);
        reqFrame = phi::net::encodeFrame(phi::net::FrameType::StepSession,
                                         a.buffer());
        phi::net::encodeSessionStepped(b, reply);
        respFrame = phi::net::encodeFrame(
            phi::net::FrameType::SessionStepped, b.buffer());
    });
    phi::net::WireStepSession step2;
    phi::net::WireSessionStepped reply2;
    const double parseUs = medianUs(101, [&] {
        const phi::net::ParsedFrame a = parseWholeFrame(reqFrame);
        phi::io::ByteReader ra(a.body, a.bodyLen);
        step2 = phi::net::decodeStepSession(ra);
        const phi::net::ParsedFrame b = parseWholeFrame(respFrame);
        phi::io::ByteReader rb(b.body, b.bodyLen);
        reply2 = phi::net::decodeSessionStepped(rb);
    });
    if (!(step2.frames == stepMsg.frames) || !(reply2.spikes == reply.spikes))
        report.fail("codec: step frame/reply round trip differs");

    std::printf("calls_traced=%zu calls_inproc=%zu rate_traced=%.1f "
                "rate_untraced=%.1f rate_inproc=%.1f rows_per_round=%.2f\n",
                w.calls.ms.size(), inproc.calls.ms.size(), w.rate(),
                opt.baselineRate, inproc.rate(), rowsPerRound);
    // Each frame of a call is one row of one pump round per layer.
    addKernelMetrics(report, probes,
                     static_cast<double>(kFramesPerCall) /
                         static_cast<double>(batchRows));
    // The session pump is the engine's caller here: its per-layer share
    // of a round minus the engine's own service time.
    report.add("engine.wait_ms",
               sessionStats.meanLatencyMs() / kLayers -
                   engineStats.meanLatencyMs(),
               "ms");
    report.add("session.round_ms", sessionStats.latencyPercentileMs(50),
               "ms");
    report.add("session.rows_per_round", rowsPerRound, "count");
    report.add("lif.frame_us", lifUs, "us");
    report.add("net.step_overhead_ms",
               percentile(w.calls.ms, 50) - percentile(inproc.calls.ms, 50),
               "ms");
    report.add("net.encode_us", encodeUs, "us");
    report.add("net.parse_us", parseUs, "us");
    addRunMetrics(report, engineStats, times, opt.baselineRate, w.rate(),
                  tracer,
                  opt.outDir + "/" + opt.workload + "-seed" +
                      std::to_string(opt.seed) + ".spans.jsonl");
}

} // namespace phibench
