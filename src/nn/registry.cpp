#include "nn/registry.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "nn/layers.h"
#include "nn/sequential.h"
#include "util/rng.h"

namespace fuse::nn {

namespace {

struct Registry {
  std::mutex mu;
  std::map<std::string, ModelFactory> factories;
};

/// The MARS CNN (Section 4.1 of the paper): two 3x3 convolutions with
/// ReLU, then two fully connected layers; the outputs are the x/y/z
/// coordinates of 19 joints.  On the 8x8x5 MARS input the paper's widths
/// total ~1.08 M parameters (the paper reports 1,095,115).  Frame fusion
/// only changes in_channels — it is a pure pre-processing step.  Layer
/// construction order fixes the RNG draw order (conv1, conv2, fc1, fc2).
std::unique_ptr<Module> build_mars_cnn(const ModelConfig& cfg,
                                       const std::string& name,
                                       std::size_t conv1, std::size_t conv2,
                                       std::size_t hidden) {
  fuse::util::Rng rng(cfg.seed);
  auto model = std::make_unique<Sequential>(name);
  model->add(Conv2d(cfg.in_channels, conv1, 3, 1, rng));
  model->add(ReLU{});
  model->add(Conv2d(conv1, conv2, 3, 1, rng));
  model->add(ReLU{});
  model->add(Flatten{});
  model->add(Linear(conv2 * cfg.grid_h * cfg.grid_w, hidden, rng));
  model->add(ReLU{});
  model->add(Linear(hidden, cfg.outputs, rng));
  return model;
}

std::unique_ptr<Module> build_mars_mlp(const ModelConfig& cfg) {
  fuse::util::Rng rng(cfg.seed);
  auto model = std::make_unique<Sequential>("mars_mlp");
  const std::size_t in_features =
      cfg.in_channels * cfg.grid_h * cfg.grid_w;
  model->add(Flatten{});
  model->add(Linear(in_features, 512, rng));
  model->add(ReLU{});
  model->add(Linear(512, 256, rng));
  model->add(ReLU{});
  model->add(Linear(256, cfg.outputs, rng));
  return model;
}

Registry& registry() {
  static Registry* r = [] {
    auto* reg = new Registry;
    // The paper's network (Section 4.1).
    reg->factories["mars_cnn"] = [](const ModelConfig& cfg) {
      return build_mars_cnn(cfg, "mars_cnn", 16, 32, 512);
    };
    // Doubled conv filters and hidden width: the capacity end of the
    // capacity/latency trade-off the serving runtime can now explore.
    reg->factories["mars_cnn_large"] = [](const ModelConfig& cfg) {
      return build_mars_cnn(cfg, "mars_cnn_large", 32, 64, 1024);
    };
    // Conv-free baseline on the flattened grid.
    reg->factories["mars_mlp"] = build_mars_mlp;
    return reg;
  }();
  return *r;
}

}  // namespace

void register_model(const std::string& name, ModelFactory factory) {
  if (!factory)
    throw std::invalid_argument("register_model: null factory for " + name);
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.factories[name] = std::move(factory);
}

std::unique_ptr<Module> build_model(const std::string& name,
                                    const ModelConfig& cfg) {
  ModelFactory factory;
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    const auto it = r.factories.find(name);
    if (it == r.factories.end()) {
      std::string known;
      for (const auto& [k, v] : r.factories)
        known += (known.empty() ? "" : ", ") + k;
      throw std::invalid_argument("build_model: unknown architecture '" +
                                  name + "' (registered: " + known + ")");
    }
    factory = it->second;
  }
  return factory(cfg);
}

std::vector<std::string> registered_models() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<std::string> out;
  out.reserve(r.factories.size());
  for (const auto& [name, factory] : r.factories) out.push_back(name);
  return out;
}

}  // namespace fuse::nn
