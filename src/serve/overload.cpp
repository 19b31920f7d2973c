#include "serve/overload.h"

namespace fuse::serve {

const char* overload_level_name(OverloadLevel l) {
  switch (l) {
    case OverloadLevel::kNormal: return "normal";
    case OverloadLevel::kPauseAdapt: return "pause_adapt";
    case OverloadLevel::kShedDeadline: return "shed_deadline";
  }
  return "?";
}

OverloadLevel OverloadDetector::update(std::size_t total_queue_depth,
                                       double tick_seconds) {
  if (!cfg_.enabled) return OverloadLevel::kNormal;

  if (!ewma_seeded_) {
    ewma_ = tick_seconds;
    ewma_seeded_ = true;
  } else {
    ewma_ += cfg_.tick_ewma_alpha * (tick_seconds - ewma_);
  }

  const bool queue_hot = total_queue_depth >= cfg_.queue_high_water;
  const bool tick_hot = cfg_.tick_high_s > 0.0 && ewma_ >= cfg_.tick_high_s;
  const bool pressure = queue_hot || tick_hot;

  // Clear requires BOTH signals inside the hysteresis band; in between the
  // ladder holds its level and both streaks reset.
  const bool queue_clear =
      static_cast<double>(total_queue_depth) <
      static_cast<double>(cfg_.queue_high_water) * cfg_.release_fraction;
  const bool tick_clear =
      cfg_.tick_high_s <= 0.0 || ewma_ < cfg_.tick_high_s * cfg_.release_fraction;
  const bool clear = queue_clear && tick_clear;

  if (pressure) {
    clear_streak_ = 0;
    descending_ = false;
    if (level_ != OverloadLevel::kShedDeadline &&
        ++pressure_streak_ >= cfg_.engage_passes) {
      level_ = static_cast<OverloadLevel>(static_cast<int>(level_) + 1);
      ++transitions_;
      pressure_streak_ = 0;
    }
  } else if (clear && level_ != OverloadLevel::kNormal) {
    pressure_streak_ = 0;
    // The first released rung waits the full release window; each further
    // rung needs only release_step_passes more clear passes, so the ladder
    // unwinds completely within roughly one window once load drops.
    const std::size_t need =
        descending_ ? cfg_.release_step_passes : cfg_.release_passes;
    if (++clear_streak_ >= (need == 0 ? 1 : need)) {
      level_ = static_cast<OverloadLevel>(static_cast<int>(level_) - 1);
      ++transitions_;
      clear_streak_ = 0;
      descending_ = true;
      if (level_ == OverloadLevel::kNormal) descending_ = false;
    }
  } else {
    pressure_streak_ = 0;
    clear_streak_ = 0;
  }
  return level_;
}

}  // namespace fuse::serve
