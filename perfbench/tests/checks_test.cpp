// The benchmark's own tests: every correctness check must catch the fault
// it exists for.  Each case builds a clean run record, asserts the checks
// pass on it, injects one fault — a wrong pose, a lost frame, a late
// generator, a leaked in-flight frame — and asserts the check trips.
//
//   ./perfbench_checks_test      (exit code 0 = every fault caught)

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "checks.h"

namespace {

using perfbench::FrameRecord;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

/// A deterministic stand-in for the batch-1 reference: the pose depends on
/// every input of the fused window, in order.
fuse::human::Pose fake_reference(const std::vector<std::uint32_t>& window) {
  fuse::human::Pose p;
  float acc = 0.0f;
  for (const auto in : window) acc = acc * 3.0f + static_cast<float>(in);
  for (std::size_t j = 0; j < p.joints.size(); ++j)
    p.joints[j] = {acc + j, acc - j, 0.5f * acc};
  return p;
}

constexpr std::size_t kWindow = 3;

/// Two sessions, five frames each, all served with the reference pose of
/// their window; session 1 adapts after its third frame.
std::vector<FrameRecord> clean_run() {
  std::vector<FrameRecord> frames;
  for (std::uint32_t s = 0; s < 2; ++s) {
    std::vector<std::uint32_t> window;
    for (std::uint32_t k = 0; k < 5; ++k) {
      FrameRecord f;
      f.session = s;
      f.k = k;
      f.input = 10 * s + k;
      f.accepted = true;
      f.seq = k;
      f.served = true;
      window.push_back(f.input);
      if (window.size() > kWindow) window.erase(window.begin());
      f.adapted_model = s == 1 && k >= 3;
      f.raw = fake_reference(window);
      if (f.adapted_model) f.raw.joints[0].x += 1.0f;  // its own model
      frames.push_back(f);
    }
  }
  return frames;
}

const std::vector<bool> kAdapting = {false, true};

perfbench::OutputCheck check(const std::vector<FrameRecord>& frames) {
  return perfbench::check_outputs(frames, kAdapting, kWindow, fake_reference);
}

perfbench::Accounting account(const std::vector<FrameRecord>& frames,
                              perfbench::ServerCounts counts = {}) {
  return perfbench::account_frames(frames, counts);
}

void test_clean_run_passes() {
  const auto frames = clean_run();
  const auto c = check(frames);
  expect(c.failures() == 0 && c.compared == 8 && c.adapted == 2,
         "clean run: every shared-model pose matches its reference");
  expect(account(frames).balanced(), "clean run: accounting balances");
  expect(perfbench::generator_valid(perfbench::kLateBoundMs),
         "generator exactly at the bound is valid");
}

void test_wrong_pose_is_caught() {
  auto frames = clean_run();
  frames[2].raw.joints[7].y += 2.0f * static_cast<float>(perfbench::kPoseTolM);
  expect(check(frames).mismatched == 1, "wrong pose beyond tolerance");

  frames = clean_run();
  frames[1].raw.joints[0].z = NAN;
  expect(check(frames).mismatched == 1, "NaN pose");

  frames = clean_run();
  frames[9].raw.joints[3].x = INFINITY;  // adapted session's last pose
  expect(check(frames).non_finite == 1, "non-finite adapted pose");

  frames = clean_run();
  frames[4].adapted_model = true;  // a read-only session claims a clone
  expect(check(frames).flag_errors == 1, "adapted flag on read-only session");

  frames = clean_run();
  frames[9].adapted_model = false;  // falls back after adapting
  expect(check(frames).failures() >= 1, "adapted flag drops after a round");

  // A pose computed from the wrong window (frames served out of order).
  frames = clean_run();
  std::swap(frames[1].raw, frames[2].raw);
  expect(check(frames).mismatched == 2, "pose of another window");
}

void test_lost_frame_is_caught() {
  auto frames = clean_run();
  frames[3].served = false;  // accepted, never delivered, not counted
  const auto a = account(frames);
  expect(!a.balanced() && a.unaccounted == 1 && a.lost() == 1,
         "lost frame leaves the accounting unbalanced");

  // The same frame reported dropped by the server balances again, but
  // still counts as lost.
  perfbench::ServerCounts c;
  c.dropped = 1;
  const auto b = account(frames, c);
  expect(b.balanced() && b.lost() == 1, "dropped frame is accounted as lost");

  frames = clean_run();
  frames[0].accepted = false;  // refused at submit...
  frames[0].served = true;     // ...yet a result arrived
  expect(!account(frames).balanced(), "result for a refused frame");
}

void test_late_generator_is_caught() {
  expect(!perfbench::generator_valid(perfbench::kLateBoundMs * 1.01),
         "generator past the lateness bound invalidates the run");
  std::vector<double> late(1000, 0.1);
  for (std::size_t i = 0; i < 20; ++i) late[i] = 50.0;  // 2% stalled sends
  expect(!perfbench::generator_valid(perfbench::quantile(late, 0.99)),
         "a stall in 2% of sends shows at p99");
}

void test_leaked_in_flight_is_caught() {
  const auto frames = clean_run();
  perfbench::ServerCounts c;
  c.in_flight = 1;
  const auto a = account(frames, c);
  expect(a.unaccounted == 0 && !a.balanced(),
         "in-flight gauge above 0 after close-out");
}

void test_quiet_half_drops_disturbed_blocks() {
  const std::vector<double> steal = {0.10, 0.0, 0.30, 0.0, 0.20};
  expect(perfbench::quiet_half(steal) == std::vector<std::size_t>{0, 1, 3},
         "quiet half keeps the least-stolen blocks, in order");
  expect(perfbench::quiet_half({0.0, 0.0}) == std::vector<std::size_t>{0},
         "quiet half breaks ties by block order");
}

}  // namespace

int main() {
  test_clean_run_passes();
  test_wrong_pose_is_caught();
  test_lost_frame_is_caught();
  test_late_generator_is_caught();
  test_leaked_in_flight_is_caught();
  test_quiet_half_drops_disturbed_blocks();
  std::printf("%s: %d failure(s)\n", g_failures ? "FAILED" : "PASSED",
              g_failures);
  return g_failures ? 1 : 0;
}
