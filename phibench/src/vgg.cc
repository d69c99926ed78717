/**
 * @file
 * vgg16_clustered / vgg16_unclustered: the paper's VGG16/CIFAR100
 * model (snn/model_zoo), calibrated and compiled here, saved to .phim,
 * loaded back and served in-process through AsyncPhiEngine by one
 * closed-loop client running images in forward-pass order.
 */

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "common/rng.hh"
#include "core/pipeline.hh"
#include "io/model_io.hh"
#include "runtime/async_engine.hh"
#include "runtime/registry.hh"
#include "snn/activation_gen.hh"
#include "snn/model_zoo.hh"
#include "workloads.hh"

namespace phibench
{

namespace
{

/** Fixes the model: generator prototypes, calibration data, weights. */
constexpr uint64_t kModelSeed = 0x5647473136ull;

/** Distinct images the timed window cycles through. */
constexpr size_t kPoolImages = 8;

constexpr const char* kModelName = "vgg16";

/** One layer request of an image, with its reference output. */
struct Request
{
    size_t layer = 0;
    phi::BinaryMatrix acts;
    phi::Matrix<int32_t> ref;
};

/** One image: every layer request in forward order, repetitions
 *  (GemmLayerSpec::count) inline. */
using Image = std::vector<Request>;

struct VggModel
{
    phi::ModelSpec spec;
    std::vector<phi::ClusteredSpikeGenerator> gens;
    std::vector<phi::Matrix<int16_t>> weights;
    std::vector<double> bitDensity; // realized on the calibration data
};

/** Calibrate, compile, save and load the model; times each stage. */
VggModel
buildModel(const phi::ExecutionConfig& exec, const std::string& path,
           phi::ModelRegistry& registry, Tracer& tracer, uint64_t parent,
           SetupTimes& times)
{
    VggModel vm;
    vm.spec = phi::makeModel(phi::ModelId::VGG16, phi::DatasetId::CIFAR100);
    const auto& layers = vm.spec.layers;
    phi::Rng master(kModelSeed);
    std::vector<uint64_t> seeds;
    for (size_t l = 0; l < layers.size(); ++l)
        seeds.push_back(master.next());

    {
        phi::Pipeline pipe(calibrationConfig(exec));
        auto t0 = Clock::now();
        {
            Span span(tracer, "setup.calibrate", parent);
            const auto gcfg =
                phi::ClusterGenConfig::fromProfile(vm.spec.profile, 16);
            for (size_t l = 0; l < layers.size(); ++l) {
                vm.gens.emplace_back(gcfg, layers[l].k, seeds[l]);
                phi::Rng calibRng(seeds[l] ^ 0xa5a5a5a5ull);
                const size_t rows = std::max<size_t>(2 * layers[l].m, 2048);
                const phi::BinaryMatrix sample =
                    vm.gens[l].generate(rows, calibRng);
                vm.bitDensity.push_back(sample.density());
                pipe.addLayer(layers[l].name, {&sample});
            }
        }
        times.calibrate = secondsBetween(t0, Clock::now());

        t0 = Clock::now();
        phi::CompiledModel model;
        {
            Span span(tracer, "setup.compile", parent);
            for (size_t l = 0; l < layers.size(); ++l) {
                vm.weights.push_back(randomWeights(
                    layers[l].k, layers[l].n, seeds[l] ^ 0x33333333ull));
                pipe.layer(l).bindWeights(vm.weights.back());
            }
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
    return vm;
}

/** Draw the image pool from the workload seed and compute every
 *  reference output (before, and outside, any timing). */
std::vector<Image>
buildPool(const VggModel& vm, bool clustered, uint64_t seed)
{
    phi::Rng traffic(seed * 0x9e3779b97f4a7c15ull + 0x1234567ull);
    std::vector<Image> pool(kPoolImages);
    for (Image& img : pool)
        for (size_t l = 0; l < vm.spec.layers.size(); ++l) {
            const phi::GemmLayerSpec& ls = vm.spec.layers[l];
            for (size_t c = 0; c < ls.count; ++c) {
                Request r;
                r.layer = l;
                r.acts = clustered ? vm.gens[l].generate(ls.m, traffic)
                                   : phi::randomActivations(
                                         ls.m, ls.k, vm.bitDensity[l],
                                         traffic);
                img.push_back(std::move(r));
            }
        }
    // The references are independent of each other: one thread per
    // CPU, each owning whole images.
    const size_t workers = std::min(hostCpus(), pool.size());
    std::vector<std::thread> threads;
    for (size_t w = 0; w < workers; ++w)
        threads.emplace_back([&, w] {
            for (size_t i = w; i < pool.size(); i += workers)
                for (Request& r : pool[i])
                    r.ref = referenceProduct(r.acts, vm.weights[r.layer]);
        });
    for (auto& t : threads)
        t.join();
    return pool;
}

/** Latencies of one closed-loop window. */
struct Window
{
    Timeline images;
    std::vector<double> requestMs;
    /** The host-speed control's time after each image. */
    std::vector<double> controlMs;

    /** Images per second of image time (checks and the control between
     *  images are not counted), median over slices. */
    double rate() const
    {
        return images.sliceMedian([](const std::vector<double>& ms, double) {
            return 1e3 / mean(ms);
        });
    }
};

} // namespace

void
runVgg(const Options& opt, bool clustered, Report& report)
{
    Tracer tracer(opt.trace);
    phi::ExecutionConfig exec;
    exec.threads = static_cast<int>(hostCpus());

    // ---- set-up: process start -> the model can serve --------------
    const std::string path = opt.outDir + "/" + opt.workload + "-" +
                             std::to_string(::getpid()) + ".phim";
    SetupTimes times;
    auto registry = std::make_shared<phi::ModelRegistry>();
    const uint64_t setupSpan = tracer.begin("setup");
    const VggModel vm =
        buildModel(exec, path, *registry, tracer, setupSpan, times);
    phi::AsyncPhiEngine engine(registry, exec);
    const phi::ModelHandle handle = registry->pin(kModelName).handle;
    times.total = sinceProcessStart();
    tracer.end(setupSpan);
    std::remove(path.c_str());

    const std::vector<Image> pool = buildPool(vm, clustered, opt.seed);
    const auto& layers = vm.spec.layers;

    // Host-speed control: the same single-threaded decomposition of one
    // fixed conv3_1 input (independent of the seed) after every image,
    // outside the timed image. It does not touch the engine, so its
    // time moves only with the speed the host gives this process;
    // steady.py correlates it with served_per_s across runs.
    size_t controlLayer = 0;
    while (layers[controlLayer].name != "conv3_1")
        ++controlLayer;
    phi::Rng controlRng(kModelSeed);
    const phi::BinaryMatrix controlActs = vm.gens[controlLayer].generate(
        layers[controlLayer].m, controlRng);
    phi::ExecutionConfig controlExec;
    controlExec.threads = 1;
    const auto controlPin = registry->pin(kModelName);

    bool faultPending = opt.injectFault;
    uint64_t imageId = 0;
    auto runWindow = [&](double seconds, Window& w) {
        const auto start = Clock::now();
        const auto deadline = start + std::chrono::duration<double>(seconds);
        w.images.seconds = seconds;
        while (Clock::now() < deadline) {
            const Image& img = pool[imageId % pool.size()];
            ++imageId;
            std::vector<phi::BinaryMatrix> inputs;
            inputs.reserve(img.size());
            for (const Request& r : img)
                inputs.push_back(r.acts);
            std::vector<phi::EngineResponse> out(img.size());
            bool ok = true;

            const uint64_t span = tracer.begin("image", 0, imageId);
            const auto t0 = Clock::now();
            for (size_t j = 0; j < img.size() && ok; ++j) {
                const size_t l = img[j].layer;
                const uint64_t rs = tracer.begin(
                    layers[l].name.c_str(), span, imageId);
                const auto r0 = Clock::now();
                try {
                    out[j] = engine.submit(handle, l, std::move(inputs[j]))
                                 .get();
                } catch (const std::exception& e) {
                    ok = false;
                    if (report.failed < 3)
                        std::fprintf(stderr, "phibench: request failed: %s\n",
                                     e.what());
                }
                w.requestMs.push_back(secondsBetween(r0, Clock::now()) *
                                      1e3);
                tracer.end(rs);
            }
            const auto t1 = Clock::now();
            tracer.end(span);

            report.attempted += 1;
            if (!ok) {
                report.failed += 1;
                continue;
            }
            w.images.add(secondsBetween(start, t1),
                         secondsBetween(t0, t1) * 1e3);

            // Checks, outside the timed image.
            if (faultPending) {
                out[0].out(0, 0) += 1;
                faultPending = false;
            }
            for (size_t j = 0; j < img.size(); ++j)
                if (!(out[j].out == img[j].ref))
                    report.fail("image " + std::to_string(imageId) +
                                " layer " + layers[img[j].layer].name +
                                ": served output differs from A*W");

            const auto c0 = Clock::now();
            controlPin->layer(controlLayer).decompose(controlActs,
                                                      controlExec);
            w.controlMs.push_back(secondsBetween(c0, Clock::now()) * 1e3);
        }
    };

    if (!opt.trace) {
        Window w;
        runWindow(opt.seconds, w);
        report.add("setup_s", times.total, "s");
        report.add("peak_rss_mb", peakRssMb(), "MB");
        report.add("served_per_s", w.rate(), "1/s");
        std::printf("images=%zu served_per_s=%.3f p50_ms=%.3f "
                    "p90_ms=%.3f setup_s=%.3f control_p50_ms=%.3f\n",
                    w.images.ms.size(), w.rate(),
                    percentile(w.images.ms, 50), percentile(w.images.ms, 90),
                    times.total, percentile(w.controlMs, 50));
        return;
    }

    // ---- traced run ---------------------------------------------------
    Window traced;
    runWindow(opt.seconds, traced);
    const phi::ServingStats es = engine.stats();

    // Per-layer kernel probe on the pool's inputs.
    const auto pin = registry->pin(kModelName);
    std::vector<LayerProbe> probes;
    for (size_t l = 0; l < layers.size(); ++l) {
        std::vector<const phi::BinaryMatrix*> in;
        std::vector<const phi::Matrix<int32_t>*> refs;
        for (const Image& img : pool)
            for (const Request& r : img)
                if (r.layer == l) {
                    in.push_back(&r.acts);
                    refs.push_back(&r.ref);
                }
        const uint64_t ps = tracer.begin("probe", 0, l);
        probes.push_back(probeLayer(pin->layer(l), vm.weights[l], in, refs,
                                    exec, report));
        tracer.end(ps);
        probes.back().count = layers[l].count;
    }

    std::printf("images=%zu rate_traced=%.3f rate_untraced=%.3f\n",
                traced.images.ms.size(), traced.rate(), opt.baselineRate);
    addKernelMetrics(report, probes, 1.0);
    report.add("engine.wait_ms", mean(traced.requestMs) - es.meanLatencyMs(),
               "ms");
    // No session layer, LIF or wire on this workload's path.
    report.add("session.round_ms", 0, "ms");
    report.add("session.rows_per_round", 0, "count");
    report.add("lif.frame_us", 0, "us");
    report.add("net.step_overhead_ms", 0, "ms");
    report.add("net.encode_us", 0, "us");
    report.add("net.parse_us", 0, "us");
    addRunMetrics(report, es, times, opt.baselineRate, traced.rate(), tracer,
                  opt.outDir + "/" + opt.workload + "-seed" +
                      std::to_string(opt.seed) + ".spans.jsonl");
}

} // namespace phibench
