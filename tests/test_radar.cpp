// Tests for the FMCW radar simulator + processing chain: configuration
// sanity, virtual-array geometry, and closed-loop localisation accuracy —
// a scatterer placed at a known (range, velocity, angle) must come back as
// a point at that location after the full FFT/CFAR/angle pipeline.

#include <gtest/gtest.h>

#include <cmath>

#include "radar/config.h"
#include "radar/fast_model.h"
#include "radar/processing.h"
#include "radar/simulator.h"
#include "util/rng.h"

namespace {

using fuse::radar::RadarConfig;
using fuse::radar::Scatterer;
using fuse::radar::Scene;
using fuse::util::Vec3;

RadarConfig small_config() {
  // Reduced frame geometry so full-pipeline tests stay fast.  Clutter
  // removal is disabled here because these tests localise *static*
  // reference targets; dedicated tests cover the clutter filter itself.
  RadarConfig cfg = fuse::radar::default_iwr1443_config();
  cfg.samples_per_chirp = 128;
  cfg.chirps_per_frame = 32;
  cfg.static_clutter_removal = false;
  return cfg;
}

// ---------------------------------------------------------------- config --

TEST(RadarConfig, DefaultIsValid) {
  const RadarConfig cfg = fuse::radar::default_iwr1443_config();
  EXPECT_NO_THROW(cfg.validate());
}

TEST(RadarConfig, DerivedQuantities) {
  const RadarConfig cfg = fuse::radar::default_iwr1443_config();
  // 77 GHz -> lambda ~ 3.9 mm.
  EXPECT_NEAR(cfg.wavelength(), 3.9e-3, 0.1e-3);
  // Sampled bandwidth from the ADC window; range resolution c/2B.
  const double res = cfg.range_resolution_m();
  EXPECT_GT(res, 0.02);
  EXPECT_LT(res, 0.08);
  // Unambiguous range covers an indoor room.
  EXPECT_GT(cfg.max_range_m(), 5.0);
  // Velocity coverage fits human motion.
  EXPECT_GT(cfg.max_velocity_mps(), 2.0);
  EXPECT_LT(cfg.velocity_resolution_mps(), 0.5);
  EXPECT_EQ(cfg.n_virtual_azimuth(), 8u);
  EXPECT_EQ(cfg.n_virtual(), 12u);
}

TEST(RadarConfig, RejectsAdcWindowLongerThanRamp) {
  RadarConfig cfg = fuse::radar::default_iwr1443_config();
  cfg.sample_rate_hz = 1.0e6;  // 256 samples now need 256 us > 64 us ramp
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(RadarConfig, RejectsZeroSizes) {
  RadarConfig cfg = fuse::radar::default_iwr1443_config();
  cfg.n_rx = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(RadarConfig, RejectsChirpBurstLongerThanFrame) {
  RadarConfig cfg = fuse::radar::default_iwr1443_config();
  cfg.chirps_per_frame = 2000;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

// ----------------------------------------------------------------- array --

TEST(VirtualArray, GeometryIsLambdaHalfUla) {
  const RadarConfig cfg = fuse::radar::default_iwr1443_config();
  const auto elems = fuse::radar::make_virtual_array(cfg);
  ASSERT_EQ(elems.size(), cfg.n_virtual());
  const double d = cfg.wavelength() / 2.0;
  // The azimuth elements form a uniform lambda/2 line at z = 0.
  for (std::size_t i = 0; i < cfg.n_virtual_azimuth(); ++i) {
    EXPECT_NEAR(elems[i].position.x, static_cast<float>(i * d), 1e-6f);
    EXPECT_EQ(elems[i].position.z, 0.0f);
    EXPECT_FALSE(elems[i].elevated);
  }
  // The elevated row sits lambda/2 higher, aligned with the first RX group.
  for (std::size_t i = 0; i < cfg.n_rx; ++i) {
    const auto& e = elems[cfg.n_virtual_azimuth() + i];
    EXPECT_TRUE(e.elevated);
    EXPECT_NEAR(e.position.z, static_cast<float>(d), 1e-6f);
    EXPECT_NEAR(e.position.x, elems[i].position.x, 1e-6f);
  }
}

TEST(VirtualArray, TdmSlotsAssigned) {
  const RadarConfig cfg = fuse::radar::default_iwr1443_config();
  const auto elems = fuse::radar::make_virtual_array(cfg);
  EXPECT_EQ(elems[0].tx_slot, 0u);
  EXPECT_EQ(elems[cfg.n_rx].tx_slot, 1u);
  EXPECT_EQ(elems.back().tx_slot, cfg.n_tx_azimuth);
}

// ------------------------------------------------------- localisation ----

struct TargetCase {
  float x, y, z;     // world position (m); radar at (0, 0, height)
  float vx, vy, vz;  // velocity (m/s)
};

class SingleTargetSweep : public ::testing::TestWithParam<TargetCase> {};

TEST_P(SingleTargetSweep, FullChainLocalisesTarget) {
  const auto p = GetParam();
  const RadarConfig cfg = small_config();
  fuse::util::Rng rng(42);

  Scatterer sc;
  // Scene is in the radar frame.
  sc.position = {p.x, p.y, p.z - static_cast<float>(cfg.radar_height_m)};
  sc.velocity = {p.vx, p.vy, p.vz};
  sc.rcs = 0.05f;

  const auto cube = fuse::radar::simulate_frame(cfg, {sc}, rng);
  const fuse::radar::Processor proc(cfg);
  const auto frame = proc.process(cube);

  ASSERT_FALSE(frame.cloud.empty()) << "target not detected";
  // Strongest point should be the target.
  const auto& pt = frame.cloud.points.front();
  const float range_tol = 2.0f * static_cast<float>(cfg.range_resolution_m());
  EXPECT_NEAR(pt.y, p.y, 3.0f * range_tol);
  EXPECT_NEAR(pt.x, p.x, 0.25f);  // angular resolution is coarse (8 elems)
  EXPECT_NEAR(pt.z, p.z, 0.30f);

  const Vec3 dir = sc.position.normalized();
  const float v_radial = dir.dot(sc.velocity);
  EXPECT_NEAR(pt.doppler, v_radial,
              2.0f * static_cast<float>(cfg.velocity_resolution_mps()));
}

INSTANTIATE_TEST_SUITE_P(
    PositionsAndVelocities, SingleTargetSweep,
    ::testing::Values(TargetCase{0.0f, 2.0f, 1.0f, 0, 0, 0},
                      TargetCase{0.5f, 2.5f, 1.2f, 0, 0, 0},
                      TargetCase{-0.6f, 3.0f, 0.8f, 0, 0, 0},
                      TargetCase{0.0f, 2.0f, 1.5f, 0, 0, 0},
                      TargetCase{0.0f, 2.2f, 1.0f, 0.0f, 1.0f, 0.0f},
                      TargetCase{0.0f, 2.2f, 1.0f, 0.0f, -1.5f, 0.0f},
                      TargetCase{0.4f, 2.8f, 1.3f, 0.0f, 0.8f, 0.0f},
                      TargetCase{0.0f, 4.0f, 1.0f, 0, 0, 0}));

TEST(Processor, TwoTargetsSeparatedInRange) {
  const RadarConfig cfg = small_config();
  fuse::util::Rng rng(1);
  Scene scene;
  scene.push_back({{0.0f, 1.8f, 0.0f}, {}, 0.05f});
  scene.push_back({{0.0f, 3.2f, 0.0f}, {}, 0.05f});
  const auto cube = fuse::radar::simulate_frame(cfg, scene, rng);
  const auto frame = fuse::radar::Processor(cfg).process(cube);
  ASSERT_GE(frame.cloud.size(), 2u);
  bool near = false, far = false;
  for (const auto& pt : frame.cloud.points) {
    near |= std::fabs(pt.y - 1.8f) < 0.2f;
    far |= std::fabs(pt.y - 3.2f) < 0.2f;
  }
  EXPECT_TRUE(near);
  EXPECT_TRUE(far);
}

TEST(Processor, TwoTargetsSeparatedInDoppler) {
  // Same range, opposite radial velocities.  The +-2 m/s separation (~14
  // Doppler bins) keeps each target outside the other's CA-CFAR training
  // window; closer targets would mask each other — classic CA-CFAR
  // multi-target behaviour, demonstrated in the OS-CFAR test in test_dsp.
  const RadarConfig cfg = small_config();
  fuse::util::Rng rng(2);
  Scene scene;
  scene.push_back({{0.0f, 2.5f, 0.0f}, {0.0f, 2.0f, 0.0f}, 0.05f});
  scene.push_back({{0.0f, 2.5f, 0.0f}, {0.0f, -2.0f, 0.0f}, 0.05f});
  const auto cube = fuse::radar::simulate_frame(cfg, scene, rng);
  const auto frame = fuse::radar::Processor(cfg).process(cube);
  bool receding = false, approaching = false;
  for (const auto& pt : frame.cloud.points) {
    receding |= pt.doppler > 1.0f;
    approaching |= pt.doppler < -1.0f;
  }
  EXPECT_TRUE(receding);
  EXPECT_TRUE(approaching);
}

TEST(Processor, NoiseOnlySceneYieldsFewPoints) {
  const RadarConfig cfg = small_config();
  fuse::util::Rng rng(3);
  const auto cube = fuse::radar::simulate_frame(cfg, {}, rng);
  const auto frame = fuse::radar::Processor(cfg).process(cube);
  // CFAR at Pfa 1e-4 over ~128*32 cells -> expect a handful of false alarms
  // at most.
  EXPECT_LT(frame.cloud.size(), 20u);
}

TEST(Processor, ElevationEstimateTracksHeight) {
  // Two runs with the target at different heights must produce clearly
  // different z estimates (exercises the monopulse + TDM compensation).
  const RadarConfig cfg = small_config();
  auto run = [&](float z_world) {
    fuse::util::Rng rng(5);
    Scatterer sc;
    sc.position = {0.0f, 2.2f,
                   z_world - static_cast<float>(cfg.radar_height_m)};
    sc.rcs = 0.05f;
    const auto cube = fuse::radar::simulate_frame(cfg, {sc}, rng);
    const auto frame = fuse::radar::Processor(cfg).process(cube);
    EXPECT_FALSE(frame.cloud.empty());
    return frame.cloud.points.front().z;
  };
  const float z_low = run(0.6f);
  const float z_high = run(1.5f);
  EXPECT_LT(z_low, z_high - 0.4f);
  EXPECT_NEAR(z_low, 0.6f, 0.35f);
  EXPECT_NEAR(z_high, 1.5f, 0.35f);
}

TEST(Processor, PointBudgetRespected) {
  RadarConfig cfg = small_config();
  cfg.max_points = 4;
  fuse::util::Rng rng(6);
  Scene scene;
  for (int i = 0; i < 12; ++i)
    scene.push_back(
        {{0.0f, 1.5f + 0.2f * static_cast<float>(i), 0.0f}, {}, 0.05f});
  const auto cube = fuse::radar::simulate_frame(cfg, scene, rng);
  const auto frame = fuse::radar::Processor(cfg).process(cube);
  EXPECT_LE(frame.cloud.size(), 4u);
}

TEST(Processor, IntensityDecreasesWithRange) {
  const RadarConfig cfg = small_config();
  auto snr_at = [&](float y) {
    fuse::util::Rng rng(7);
    Scatterer sc;
    sc.position = {0.0f, y, 0.0f};
    sc.rcs = 0.05f;
    const auto cube = fuse::radar::simulate_frame(cfg, {sc}, rng);
    const auto frame = fuse::radar::Processor(cfg).process(cube);
    EXPECT_FALSE(frame.cloud.empty());
    return frame.cloud.points.front().intensity;
  };
  EXPECT_GT(snr_at(1.5f), snr_at(4.5f) + 6.0f);  // >~ r^4 law in dB
}

TEST(Processor, StaticClutterRemovalSuppressesStaticTarget) {
  RadarConfig cfg = small_config();
  cfg.static_clutter_removal = true;
  fuse::util::Rng rng(9);
  Scene scene;
  scene.push_back({{0.0f, 2.2f, 0.0f}, {}, 0.05f});                 // static
  scene.push_back({{0.3f, 2.8f, 0.2f}, {0.0f, 1.0f, 0.0f}, 0.05f}); // moving
  const auto cube = fuse::radar::simulate_frame(cfg, scene, rng);
  const auto frame = fuse::radar::Processor(cfg).process(cube);
  bool static_seen = false, moving_seen = false;
  for (const auto& pt : frame.cloud.points) {
    if (std::fabs(pt.doppler) < 0.2f && std::fabs(pt.y - 2.2f) < 0.15f)
      static_seen = true;
    if (pt.doppler > 0.5f) moving_seen = true;
  }
  EXPECT_FALSE(static_seen);
  EXPECT_TRUE(moving_seen);
}

// ------------------------------------------------------------ RadarCube --

TEST(RadarCube, IndexingLayout) {
  fuse::radar::RadarCube cube(2, 3, 4);
  cube.at(1, 2, 3) = {5.0f, 6.0f};
  EXPECT_EQ(cube.chirp_ptr(1, 2)[3], (fuse::radar::cfloat{5.0f, 6.0f}));
  EXPECT_EQ(cube.n_virtual(), 2u);
  EXPECT_EQ(cube.n_chirps(), 3u);
  EXPECT_EQ(cube.n_samples(), 4u);
}

TEST(Simulator, NoiseFloorMatchesConfiguredPower) {
  RadarConfig cfg = small_config();
  cfg.noise_power = 4.0e-4;
  fuse::util::Rng rng(8);
  const auto cube = fuse::radar::simulate_frame(cfg, {}, rng);
  double acc = 0.0;
  std::size_t n = 0;
  for (std::size_t v = 0; v < cube.n_virtual(); ++v)
    for (std::size_t c = 0; c < cube.n_chirps(); ++c)
      for (std::size_t s = 0; s < cube.n_samples(); ++s) {
        acc += std::norm(cube.at(v, c, s));
        ++n;
      }
  EXPECT_NEAR(acc / static_cast<double>(n), cfg.noise_power,
              0.1 * cfg.noise_power);
}

// ------------------------------------------- planned path vs reference --

Scene busy_scene(fuse::util::Rng& rng, std::size_t n_scatterers = 16) {
  Scene scene;
  for (std::size_t i = 0; i < n_scatterers; ++i) {
    Scatterer sc;
    sc.position = {rng.uniformf(-0.6f, 0.6f), rng.uniformf(1.5f, 3.0f),
                   rng.uniformf(-0.8f, 0.8f)};
    sc.velocity = {0.0f, rng.uniformf(-1.2f, 1.2f),
                   rng.uniformf(-0.4f, 0.4f)};
    sc.rcs = rng.uniformf(0.005f, 0.05f);
    scene.push_back(sc);
  }
  return scene;
}

/// The first nc chirps and ns samples of every channel of `cube`.
fuse::radar::RadarCube crop(const fuse::radar::RadarCube& cube,
                            std::size_t nc, std::size_t ns) {
  fuse::radar::RadarCube out(cube.n_virtual(), nc, ns);
  for (std::size_t v = 0; v < cube.n_virtual(); ++v)
    for (std::size_t c = 0; c < nc; ++c)
      for (std::size_t s = 0; s < ns; ++s) out.at(v, c, s) = cube.at(v, c, s);
  return out;
}

TEST(PlannedProcessor, RangeDopplerBitIdenticalToReference) {
  // Every host lane variant, with and without clutter removal.  In the
  // 32-chirp x 128-sample config: the full frame and shapes that leave
  // partial lane groups (20 chirps of 100 samples; a single chirp).  In an
  // 8-sample x 4-chirp config, range and Doppler sizes below the lane
  // width, so the Doppler pass reads the padded tail of the range spectra
  // and both stores take their per-lane path.
  struct Case {
    std::size_t cfg_samples, cfg_chirps;  // the processor's frame
    std::size_t samples, chirps;          // the cube's shape
  };
  for (const Case c : {Case{128, 32, 128, 32}, Case{128, 32, 100, 20},
                       Case{128, 32, 128, 1}, Case{8, 4, 8, 4}}) {
    for (const bool clutter : {false, true}) {
      RadarConfig cfg = small_config();
      cfg.samples_per_chirp = c.cfg_samples;
      cfg.chirps_per_frame = c.cfg_chirps;
      cfg.static_clutter_removal = clutter;
      fuse::util::Rng rng(clutter ? 91 : 92);
      const auto cube =
          crop(fuse::radar::simulate_frame(cfg, busy_scene(rng), rng),
               c.chirps, c.samples);
      const fuse::radar::Processor proc(cfg);
      const auto ref = proc.range_doppler_reference(cube);
      for (const fuse::dsp::LaneVariant* lanes :
           fuse::dsp::host_lane_variants()) {
        fuse::radar::FrameWorkspace ws;
        const auto& got = proc.range_doppler(cube, ws, *lanes);
        ASSERT_EQ(ref.size(), got.size());
        std::size_t mismatches = 0;
        for (std::size_t i = 0; i < ref.size(); ++i)
          if (ref.data()[i] != got.data()[i]) ++mismatches;
        EXPECT_EQ(mismatches, 0u)
            << lanes->name << " clutter=" << clutter << " frame "
            << c.cfg_chirps << "x" << c.cfg_samples << " cube " << c.chirps
            << "x" << c.samples;
      }
    }
  }
}

TEST(PlannedProcessor, FullPipelineMatchesReference) {
  RadarConfig cfg = small_config();
  fuse::util::Rng rng(93);
  const auto cube = fuse::radar::simulate_frame(cfg, busy_scene(rng), rng);
  const fuse::radar::Processor proc(cfg);
  const auto ref = proc.process_reference(cube);
  ASSERT_GT(ref.detections.size(), 0u) << "scene produced no detections";

  for (const fuse::dsp::LaneVariant* lanes :
       fuse::dsp::host_lane_variants()) {
    SCOPED_TRACE(lanes->name);
    fuse::radar::FrameWorkspace ws;
    fuse::radar::ProcessedFrame got;
    proc.detect(proc.range_doppler(cube, ws, *lanes), ws, got);

    ASSERT_EQ(ref.power_map.size(), got.power_map.size());
    for (std::size_t i = 0; i < ref.power_map.size(); ++i)
      EXPECT_EQ(ref.power_map[i], got.power_map[i]);

    ASSERT_EQ(ref.detections.size(), got.detections.size());
    for (std::size_t i = 0; i < ref.detections.size(); ++i) {
      EXPECT_EQ(ref.detections[i].range_bin, got.detections[i].range_bin);
      EXPECT_EQ(ref.detections[i].doppler_bin, got.detections[i].doppler_bin);
      EXPECT_EQ(ref.detections[i].range_m, got.detections[i].range_m);
      EXPECT_EQ(ref.detections[i].velocity_mps,
                got.detections[i].velocity_mps);
      EXPECT_EQ(ref.detections[i].dir_cos_x, got.detections[i].dir_cos_x);
      EXPECT_EQ(ref.detections[i].dir_cos_z, got.detections[i].dir_cos_z);
      EXPECT_EQ(ref.detections[i].snr_db, got.detections[i].snr_db);
    }
    ASSERT_EQ(ref.cloud.points.size(), got.cloud.points.size());
    for (std::size_t i = 0; i < ref.cloud.points.size(); ++i) {
      EXPECT_EQ(ref.cloud.points[i].x, got.cloud.points[i].x);
      EXPECT_EQ(ref.cloud.points[i].y, got.cloud.points[i].y);
      EXPECT_EQ(ref.cloud.points[i].z, got.cloud.points[i].z);
      EXPECT_EQ(ref.cloud.points[i].doppler, got.cloud.points[i].doppler);
      EXPECT_EQ(ref.cloud.points[i].intensity,
                got.cloud.points[i].intensity);
    }
  }
}

TEST(PlannedProcessor, CompatProcessEqualsWorkspaceProcess) {
  RadarConfig cfg = small_config();
  fuse::util::Rng rng(94);
  const auto cube = fuse::radar::simulate_frame(cfg, busy_scene(rng), rng);
  const fuse::radar::Processor proc(cfg);
  const auto compat = proc.process(cube);
  fuse::radar::FrameWorkspace ws;
  fuse::radar::ProcessedFrame got;
  proc.process(cube, ws, got);
  ASSERT_EQ(compat.cloud.points.size(), got.cloud.points.size());
  for (std::size_t i = 0; i < compat.cloud.points.size(); ++i)
    EXPECT_EQ(compat.cloud.points[i].x, got.cloud.points[i].x);
}

TEST(FrameWorkspace, RangeDopplerIsAllocationFreeInSteadyState) {
  RadarConfig cfg = small_config();
  fuse::util::Rng rng(95);
  const fuse::radar::Processor proc(cfg);
  fuse::radar::FrameWorkspace ws;
  // Distinct cubes of the same shape: buffers must be recycled, not
  // reallocated, once the first frame has sized them.
  std::vector<fuse::radar::RadarCube> cubes;
  for (int i = 0; i < 4; ++i)
    cubes.push_back(fuse::radar::simulate_frame(cfg, busy_scene(rng), rng));
  (void)proc.range_doppler(cubes[0], ws);
  const std::size_t grows = ws.grow_events();
  EXPECT_GT(grows, 0u);  // the first frame did size the workspace
  for (int pass = 0; pass < 3; ++pass)
    for (const auto& cube : cubes) (void)proc.range_doppler(cube, ws);
  EXPECT_EQ(ws.grow_events(), grows)
      << "range_doppler allocated in steady state";
}

TEST(FrameWorkspace, FullProcessStabilizesAllocations) {
  RadarConfig cfg = small_config();
  fuse::util::Rng rng(96);
  const fuse::radar::Processor proc(cfg);
  fuse::radar::FrameWorkspace ws;
  fuse::radar::ProcessedFrame out;
  std::vector<fuse::radar::RadarCube> cubes;
  for (int i = 0; i < 4; ++i)
    cubes.push_back(fuse::radar::simulate_frame(cfg, busy_scene(rng), rng));
  // Warm-up pass sizes every workspace buffer (CFAR scratch, angle
  // scratch, detection vector) across the cube variety.
  for (const auto& cube : cubes) proc.process(cube, ws, out);
  const std::size_t grows = ws.grow_events();
  for (int pass = 0; pass < 3; ++pass)
    for (const auto& cube : cubes) proc.process(cube, ws, out);
  EXPECT_EQ(ws.grow_events(), grows) << "process allocated in steady state";
}

TEST(PlannedProcessor, OversizedCubeThrows) {
  RadarConfig cfg = small_config();
  const fuse::radar::Processor proc(cfg);
  // More samples than the configured range FFT can hold.
  fuse::radar::RadarCube cube(cfg.n_virtual(), cfg.chirps_per_frame,
                              2 * fuse::dsp::next_pow2(cfg.samples_per_chirp));
  fuse::radar::FrameWorkspace ws;
  EXPECT_THROW(proc.range_doppler(cube, ws), std::invalid_argument);
  EXPECT_THROW(proc.range_doppler_reference(cube), std::invalid_argument);
}

TEST(PlannedProcessor, ChannelCountMismatchThrows) {
  // estimate_angles reads one RD cell per virtual element: a cube with
  // fewer channels than the array would be read past its end, and one
  // with more would be misassigned.  Both are refused up front.
  RadarConfig cfg = small_config();
  const fuse::radar::Processor proc(cfg);
  fuse::radar::FrameWorkspace ws;
  fuse::radar::ProcessedFrame out;
  for (const std::size_t nv : {cfg.n_virtual() - 1, cfg.n_virtual() + 1}) {
    const fuse::radar::RadarCube cube(nv, cfg.chirps_per_frame,
                                      cfg.samples_per_chirp);
    EXPECT_FALSE(proc.accepts(cube));
    EXPECT_THROW(proc.range_doppler(cube, ws), std::invalid_argument);
    EXPECT_THROW(proc.process(cube, ws, out), std::invalid_argument);
  }
  const fuse::radar::RadarCube good(cfg.n_virtual(), cfg.chirps_per_frame,
                                    cfg.samples_per_chirp);
  EXPECT_TRUE(proc.accepts(good));
}

TEST(PlannedProcessor, DetectRefusesMismatchedRdCube) {
  // Angle estimation reads one RD cell per virtual element, and the CFAR
  // tail indexes the map by this processor's bin counts: an RD cube of any
  // other shape is refused by every detect entry point, and a cube with
  // the wrong channel count by the reference chain as well.
  RadarConfig cfg = small_config();
  const fuse::radar::Processor proc(cfg);
  const std::size_t nv = cfg.n_virtual();
  const std::size_t nr = proc.n_range_bins(), nd = proc.n_doppler_bins();
  fuse::radar::FrameWorkspace ws;
  fuse::radar::ProcessedFrame out;
  for (const auto& rd :
       {fuse::radar::RangeDopplerCube(8, nr, nd),
        fuse::radar::RangeDopplerCube(nv + 1, nr, nd),
        fuse::radar::RangeDopplerCube(nv, nr / 2, nd),
        fuse::radar::RangeDopplerCube(nv, nr, 2 * nd)}) {
    EXPECT_THROW(proc.detect(rd), std::invalid_argument);
    EXPECT_THROW(proc.detect(rd, ws, out), std::invalid_argument);
    EXPECT_THROW(proc.detect_reference(rd), std::invalid_argument);
  }
  const fuse::radar::RadarCube cube(8, cfg.chirps_per_frame,
                                    cfg.samples_per_chirp);
  EXPECT_THROW(proc.range_doppler_reference(cube), std::invalid_argument);
  EXPECT_THROW(proc.process_reference(cube), std::invalid_argument);
  // The matching shape is accepted.
  EXPECT_NO_THROW(proc.detect(fuse::radar::RangeDopplerCube(nv, nr, nd)));
}

TEST(PlannedProcessor, CubeBetweenWindowAndFftSizeThrows) {
  // Non-power-of-two samples_per_chirp: the Hann window is shorter than
  // the padded FFT size, and a cube sized in between must be rejected
  // (it would read past the window), not silently processed.
  RadarConfig cfg = small_config();
  cfg.samples_per_chirp = 100;  // window 100, n_range 128
  const fuse::radar::Processor proc(cfg);
  fuse::radar::RadarCube cube(cfg.n_virtual(), cfg.chirps_per_frame, 110);
  fuse::radar::FrameWorkspace ws;
  EXPECT_THROW(proc.range_doppler(cube, ws), std::invalid_argument);
  EXPECT_THROW(proc.range_doppler_reference(cube), std::invalid_argument);
}

}  // namespace
