// Checkpoint/restart: binary round-trip bit-exactness, descriptive errors
// on corrupt / wrong-version / wrong-config files, and the serving-layer
// guarantee itself — a trajectory split mid-run at a checkpoint and resumed
// in a FRESH propagator replays the committed golden fixture at 1e-10,
// serially, band-parallel and on the 2-D band x grid layout, and lands on
// the bitwise-identical final state of the uninterrupted run.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "dist/band_ham.hpp"
#include "ham/density.hpp"
#include "ham/isdf.hpp"
#include "io/checkpoint.hpp"
#include "td/observables.hpp"
#include "td/ptim.hpp"
#include "test_helpers.hpp"

using namespace ptim;

namespace {

// --- generic helpers ------------------------------------------------------

void expect_error_containing(const std::function<void()>& op,
                             const std::string& needle) {
  try {
    op();
    FAIL() << "expected ptim::Error containing '" << needle << "'";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "error message was: " << e.what();
  }
}

bool bitwise_equal(const la::MatC& a, const la::MatC& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
}

std::vector<unsigned char> slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  std::vector<unsigned char> bytes(static_cast<size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

void spit(const std::string& path, const std::vector<unsigned char>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

io::Checkpoint sample_checkpoint() {
  io::Checkpoint c;
  c.state.phi = test::random_matrix(40, 5, 101);
  c.state.sigma = test::random_hermitian(5, 102);
  c.state.time = 3.25;
  c.step_index = 7;
  c.config_hash = 0xdeadbeefcafe1234ull;
  c.avec = {1.5e-3, 0.0, -2.5e-4};
  return c;
}

// --- golden-trajectory scaffolding (mirrors tests/test_golden.cpp) --------

constexpr int kSteps = 10;
constexpr int kSplit = 4;  // checkpoint after step 4, resume steps 5..10
constexpr real_t kTol = 1e-10;
constexpr size_t kBands = 6;
const char* kFixture = "ptim_ace_10step.txt";

td::PtImOptions ptim_options() {
  td::PtImOptions opt;
  opt.dt = 0.5;
  opt.tol = 1e-8;
  opt.variant = td::PtImVariant::kAce;
  return opt;
}

td::TdState initial_state(size_t npw) {
  td::TdState s;
  s.phi = test::random_orbitals(npw, kBands, 641);
  s.sigma = test::random_occupation_matrix(kBands, 642);
  return s;
}

// Same serial observation ruler as the golden harness: a dedicated
// Hamiltonian so the propagators' exchange mutations cannot leak into the
// measured Fock energy.
struct Observer {
  explicit Observer(test::TinySystem& sys)
      : sys_(&sys),
        h_(*sys.lattice, sys.atoms, *sys.sphere, *sys.wfc_grid, *sys.den_grid,
           ham::HamiltonianOptions{}) {
    h_.set_exchange_mode(ham::ExchangeMode::kExactDiag);
  }

  test::GoldenStep operator()(const td::TdState& s) {
    const auto rho = ham::density_sigma(s.phi, s.sigma, h_.den_map());
    test::GoldenStep g;
    h_.set_density(rho);
    g.energy = h_.energy(s.phi, s.sigma, rho).total();
    g.dipole = td::dipole(rho, *sys_->den_grid, {1.0, 0.0, 0.0});
    g.sigma_trace = 0.0;
    for (size_t i = 0; i < s.sigma.rows(); ++i)
      g.sigma_trace += std::real(s.sigma(i, i));
    return g;
  }

  test::TinySystem* sys_;
  ham::Hamiltonian h_;
};

void expect_matches_fixture_rows(const std::vector<test::GoldenStep>& got,
                                 size_t first_row, const char* what) {
  const test::GoldenTrajectory ref = test::golden_load(kFixture);
  ASSERT_LE(first_row + got.size(), ref.steps.size()) << what;
  for (size_t k = 0; k < got.size(); ++k) {
    const size_t row = first_row + k;
    EXPECT_NEAR(got[k].energy, ref.steps[row].energy, kTol)
        << what << " fixture row " << row;
    EXPECT_NEAR(got[k].dipole, ref.steps[row].dipole, kTol)
        << what << " fixture row " << row;
    EXPECT_NEAR(got[k].sigma_trace, ref.steps[row].sigma_trace, kTol)
        << what << " fixture row " << row;
  }
}

// Serial golden run up to `steps`, returning the final state (observations
// optional). Fresh system + propagator per call.
td::TdState run_serial_steps(int steps,
                             std::vector<test::GoldenStep>* obs = nullptr,
                             const td::TdState* start = nullptr) {
  test::TinySystem sys = test::TinySystem::make(3.0);
  Observer observe(sys);
  td::TdState s = start ? *start : initial_state(sys.sphere->npw());
  td::PtImPropagator prop(*sys.ham, ptim_options(), nullptr);
  for (int i = 0; i < steps; ++i) {
    prop.step(s);
    if (obs) obs->push_back(observe(s));
  }
  return s;
}

// Distributed continuation from `start` on a pb x pg layout, observing
// every step with the serial ruler.
std::vector<test::GoldenStep> run_distributed_from(
    const td::TdState& start, int steps, dist::ProcessGrid pgrid,
    dist::ExchangePattern pattern) {
  test::TinySystem sys = test::TinySystem::make(3.0);
  const int nranks = pgrid.pb * pgrid.pg;
  const dist::BlockLayout bands(kBands, pgrid.pb);
  std::vector<td::TdState> traj(static_cast<size_t>(steps));
  ptmpi::run_ranks(nranks, 2, [&](ptmpi::Comm& c) {
    auto h = std::make_unique<ham::Hamiltonian>(
        *sys.lattice, sys.atoms, *sys.sphere, *sys.wfc_grid, *sys.den_grid,
        ham::HamiltonianOptions{});
    dist::BandHamOptions bopt;
    bopt.pattern = pattern;
    if (pgrid.pg > 1) bopt.grid = pgrid;
    dist::BandDistributedHamiltonian bdh(c, *h, kBands, bopt);
    const int br = pgrid.pg > 1 ? pgrid.band_rank_of(c.rank()) : c.rank();
    td::TdState s = td::scatter_state(start, bands, br);
    td::PtImPropagator prop(bdh, ptim_options(), nullptr);
    for (int i = 0; i < steps; ++i) {
      prop.step(s);
      const td::TdState full = td::gather_state(bdh.comm(), s, bands);
      if (c.rank() == 0) traj[static_cast<size_t>(i)] = full;
    }
  });
  Observer observe(sys);
  std::vector<test::GoldenStep> out;
  for (const auto& s : traj) out.push_back(observe(s));
  return out;
}

}  // namespace

// --- binary format --------------------------------------------------------

TEST(Checkpoint, RoundTripIsBitExact) {
  const std::string path = "test_io_roundtrip.ckpt";
  const io::Checkpoint c = sample_checkpoint();
  io::save_checkpoint(path, c);
  const io::Checkpoint r = io::load_checkpoint(path, c.config_hash);
  EXPECT_TRUE(bitwise_equal(r.state.phi, c.state.phi));
  EXPECT_TRUE(bitwise_equal(r.state.sigma, c.state.sigma));
  EXPECT_EQ(std::memcmp(&r.state.time, &c.state.time, sizeof(real_t)), 0);
  EXPECT_EQ(r.step_index, c.step_index);
  EXPECT_EQ(r.config_hash, c.config_hash);
  for (int d = 0; d < 3; ++d)
    EXPECT_EQ(std::memcmp(&r.avec[d], &c.avec[d], sizeof(real_t)), 0);
  std::remove(path.c_str());
}

TEST(Checkpoint, DescriptiveErrorsOnBadFiles) {
  const std::string path = "test_io_corrupt.ckpt";
  io::save_checkpoint(path, sample_checkpoint());
  const std::vector<unsigned char> good = slurp(path);

  expect_error_containing([&] { io::load_checkpoint("no_such_file.ckpt"); },
                          "missing");

  auto corrupted = good;
  corrupted[0] ^= 0xff;  // magic
  spit(path, corrupted);
  expect_error_containing([&] { io::load_checkpoint(path); }, "bad magic");

  corrupted = good;
  corrupted[8] += 1;  // version (first field after the 8-byte magic)
  spit(path, corrupted);
  expect_error_containing([&] { io::load_checkpoint(path); },
                          "unsupported checkpoint version");

  corrupted.assign(good.begin(), good.begin() + 40);  // mid-header cut
  spit(path, corrupted);
  expect_error_containing([&] { io::load_checkpoint(path); }, "truncated");

  corrupted = good;
  corrupted[good.size() / 2] ^= 0x01;  // one payload bit
  spit(path, corrupted);
  expect_error_containing([&] { io::load_checkpoint(path); },
                          "checksum mismatch");

  spit(path, good);
  (void)io::load_checkpoint(path);  // pristine bytes still load
  expect_error_containing(
      [&] { io::load_checkpoint(path, /*expected_config_hash=*/12345); },
      "different run configuration");
  std::remove(path.c_str());
}

// --- mid-trajectory split against the golden fixture ----------------------

TEST(CheckpointResume, SerialSplitReplaysGoldenAndFinalStateBitwise) {
  const std::string path = "test_io_split.ckpt";
  // Segment 1: steps 1..kSplit, then checkpoint.
  std::vector<test::GoldenStep> obs;
  const td::TdState at_split = run_serial_steps(kSplit, &obs);
  io::Checkpoint c;
  c.state = at_split;
  c.step_index = kSplit;
  c.config_hash = 977;
  io::save_checkpoint(path, c);

  // Segment 2: FRESH system + propagator resumed from the file.
  const io::Checkpoint r = io::load_checkpoint(path, c.config_hash);
  EXPECT_EQ(r.step_index, static_cast<uint64_t>(kSplit));
  const td::TdState resumed =
      run_serial_steps(kSteps - kSplit, &obs, &r.state);

  // The concatenated observations replay the committed fixture...
  expect_matches_fixture_rows(obs, 0, "serial split+resume");
  // ...and the resumed endpoint is bitwise the uninterrupted run's.
  const td::TdState uninterrupted = run_serial_steps(kSteps);
  EXPECT_TRUE(bitwise_equal(resumed.phi, uninterrupted.phi));
  EXPECT_TRUE(bitwise_equal(resumed.sigma, uninterrupted.sigma));
  EXPECT_EQ(std::memcmp(&resumed.time, &uninterrupted.time, sizeof(real_t)),
            0);
  std::remove(path.c_str());
}

TEST(CheckpointResume, DistributedResumeReplaysGolden) {
  const std::string path = "test_io_split_dist.ckpt";
  io::Checkpoint c;
  c.state = run_serial_steps(kSplit);
  c.step_index = kSplit;
  io::save_checkpoint(path, c);
  const io::Checkpoint r = io::load_checkpoint(path);

  // A serial segment resumed band-parallel (4 ranks, async ring)...
  expect_matches_fixture_rows(
      run_distributed_from(r.state, kSteps - kSplit, dist::ProcessGrid{4, 1},
                           dist::ExchangePattern::kAsyncRing),
      kSplit, "band-parallel resume p=4");
  // ...and on the 2-D 2x2 band x grid layout.
  expect_matches_fixture_rows(
      run_distributed_from(r.state, kSteps - kSplit, dist::ProcessGrid{2, 2},
                           dist::ExchangePattern::kAsyncRing),
      kSplit, "2-D 2x2 resume");
  std::remove(path.c_str());
}

// --- Simulation-level checkpoint API --------------------------------------

TEST(CheckpointResume, SimulationRunSplitIsBitExact) {
  core::SystemSpec spec;
  spec.ecut = 1.5;
  spec.temperature_k = 8000.0;
  spec.scf.tol_rho = 5e-5;
  spec.scf.max_scf = 120;
  spec.scf.davidson_tol = 1e-6;
  spec.scf.max_outer_ace = 3;
  core::Simulation sim(spec);
  sim.prepare_ground_state();

  core::RunConfig cfg;
  cfg.steps = 4;
  cfg.dt = 1.0;
  cfg.variant = td::PtImVariant::kAce;
  cfg.tol = 1e-7;
  // Split horizons must agree, so pin the envelope explicitly (RunConfig
  // documents this for split trajectories).
  cfg.t_horizon = cfg.steps * cfg.dt;

  const std::string path = "test_io_sim.ckpt";
  // Uninterrupted 4-step reference.
  const auto full = sim.run(cfg);

  // Segment 1: 2 steps, checkpoint through the Simulation API.
  core::RunConfig half = cfg;
  half.steps = 2;
  const auto seg1 = sim.run(half);
  io::save_checkpoint(path, sim.checkpoint(cfg, seg1.final_state, 2));

  // Segment 2: restore (config-hash checked) and finish the trajectory.
  const io::Checkpoint c = io::load_checkpoint(path, sim.config_hash(cfg));
  td::TdState s = sim.restore(c);
  const auto seg2 =
      sim.run(half, {}, &s, c.step_index);

  EXPECT_TRUE(bitwise_equal(seg2.final_state.phi, full.final_state.phi));
  EXPECT_TRUE(bitwise_equal(seg2.final_state.sigma, full.final_state.sigma));

  // A physics-relevant config change is a refused resume, not a silently
  // different trajectory.
  core::RunConfig other = cfg;
  other.dt = 2.0;
  EXPECT_NE(sim.config_hash(cfg), sim.config_hash(other));
  expect_error_containing(
      [&] { io::load_checkpoint(path, sim.config_hash(other)); },
      "different run configuration");
  // Layout/throughput knobs are trajectory-invariant and hash-neutral.
  core::RunConfig wider = cfg;
  wider.exchange_batch = 4;
  wider.nranks = 2;
  EXPECT_EQ(sim.config_hash(cfg), sim.config_hash(wider));
  std::remove(path.c_str());
}

TEST(CheckpointResume, IsdfSplitIsBitExactAndDenseCheckpointsResume) {
  // ISDF holds interpolation points only within a step, so a checkpoint
  // carries no ISDF state: a split kIsdf run resumes bitwise, and a kDense
  // checkpoint resumes under kIsdf exactly like an in-memory switch.
  core::SystemSpec spec;
  spec.ecut = 1.5;
  spec.temperature_k = 8000.0;
  spec.scf.tol_rho = 5e-5;
  spec.scf.max_scf = 120;
  spec.scf.davidson_tol = 1e-6;
  spec.scf.max_outer_ace = 3;
  core::Simulation sim(spec);
  sim.prepare_ground_state();

  core::RunConfig cfg;
  cfg.steps = 4;
  cfg.dt = 1.0;
  cfg.variant = td::PtImVariant::kAce;
  cfg.tol = 1e-7;
  cfg.t_horizon = cfg.steps * cfg.dt;
  cfg.compression = ham::ExchangeCompression::kIsdf;
  cfg.isdf_rank_factor = 2.0;  // Nmu < Ng: held and fresh sets can differ
  const size_t ng = sim.hamiltonian().exchange_op().map().grid().size();
  const size_t nb = sim.initial_state().phi.cols();
  ASSERT_LT(ham::isdf::rank(*cfg.isdf_rank_factor, nb, nb, ng), ng);
  core::RunConfig half = cfg;
  half.steps = 2;

  const std::string path = "test_io_isdf.ckpt";
  const auto full = sim.run(cfg);
  const auto seg1 = sim.run(half);
  io::save_checkpoint(path, sim.checkpoint(cfg, seg1.final_state, 2));
  {
    const io::Checkpoint c = io::load_checkpoint(path, sim.config_hash(cfg));
    td::TdState s = sim.restore(c);
    const auto seg2 = sim.run(half, {}, &s, c.step_index);
    EXPECT_TRUE(bitwise_equal(seg2.final_state.phi, full.final_state.phi));
    EXPECT_TRUE(
        bitwise_equal(seg2.final_state.sigma, full.final_state.sigma));
  }

  // Dense first half, checkpointed; the ISDF config accepts the file.
  core::RunConfig dense_half = half;
  dense_half.compression = ham::ExchangeCompression::kDense;
  EXPECT_EQ(sim.config_hash(dense_half), sim.config_hash(half));
  const auto dense1 = sim.run(dense_half);
  io::save_checkpoint(path, sim.checkpoint(dense_half, dense1.final_state, 2));
  td::TdState in_memory = dense1.final_state;
  const auto switched = sim.run(half, {}, &in_memory, 2);
  const io::Checkpoint c = io::load_checkpoint(path, sim.config_hash(half));
  td::TdState s = sim.restore(c);
  const auto resumed = sim.run(half, {}, &s, c.step_index);
  EXPECT_TRUE(
      bitwise_equal(resumed.final_state.phi, switched.final_state.phi));
  EXPECT_TRUE(
      bitwise_equal(resumed.final_state.sigma, switched.final_state.sigma));
  std::remove(path.c_str());
}

// --- atomic save + format v2 hardening ------------------------------------

TEST(Checkpoint, AtomicSaveLeavesNoStagingAndPreservesOriginalOnFailure) {
  const std::string path = "test_io_atomic.ckpt";
  const io::Checkpoint c = sample_checkpoint();
  io::save_checkpoint(path, c);
  // The staging file was renamed away, not left behind.
  EXPECT_EQ(std::fopen((path + ".tmp").c_str(), "rb"), nullptr);

  // Force the NEXT save to fail before publication (the staging path is
  // unopenable): the established checkpoint must survive untouched.
  ASSERT_EQ(::mkdir((path + ".tmp").c_str(), 0777), 0);
  io::Checkpoint newer = sample_checkpoint();
  newer.step_index = 99;
  expect_error_containing([&] { io::save_checkpoint(path, newer); },
                          "cannot open checkpoint for writing");
  const io::Checkpoint r = io::load_checkpoint(path, c.config_hash);
  EXPECT_EQ(r.step_index, c.step_index);  // the OLD complete file
  // The failed save's own cleanup already removed the empty decoy dir
  // (std::remove handles both); make sure nothing is left either way.
  ::rmdir((path + ".tmp").c_str());
  std::remove(path.c_str());
}

TEST(Checkpoint, FormatV2RejectsTrailingBytesAndBadSentinel) {
  const std::string path = "test_io_v2.ckpt";
  io::Checkpoint c = sample_checkpoint();
  // Round-trip an opaque campaign metadata blob alongside the state.
  for (int i = 0; i < 257; ++i)
    c.campaign_meta.push_back(static_cast<uint8_t>(i * 7));
  io::save_checkpoint(path, c);
  const std::vector<unsigned char> good = slurp(path);
  {
    const io::Checkpoint r = io::load_checkpoint(path, c.config_hash);
    ASSERT_EQ(r.campaign_meta.size(), c.campaign_meta.size());
    EXPECT_EQ(std::memcmp(r.campaign_meta.data(), c.campaign_meta.data(),
                          c.campaign_meta.size()),
              0);
  }

  // Bytes after the checksum were never covered by it: reject, don't trust.
  auto corrupted = good;
  corrupted.push_back(0x00);
  spit(path, corrupted);
  expect_error_containing([&] { io::load_checkpoint(path); },
                          "trailing bytes");

  // A byte-swapped version field is an opposite-endianness writer, called
  // out as such instead of a generic corruption failure. The version u32
  // sits at offset 8, right after the magic.
  corrupted = good;
  std::swap(corrupted[8], corrupted[11]);
  std::swap(corrupted[9], corrupted[10]);
  spit(path, corrupted);
  expect_error_containing([&] { io::load_checkpoint(path); },
                          "opposite-endianness");

  // Same diagnosis when only the sentinel (offset 12) is byte-reversed.
  corrupted = good;
  std::swap(corrupted[12], corrupted[15]);
  std::swap(corrupted[13], corrupted[14]);
  spit(path, corrupted);
  expect_error_containing([&] { io::load_checkpoint(path); },
                          "opposite-endianness");

  // A sentinel that matches NEITHER byte order is plain header corruption.
  corrupted = good;
  corrupted[12] ^= 0xff;
  spit(path, corrupted);
  expect_error_containing([&] { io::load_checkpoint(path); },
                          "bad endianness sentinel");
  std::remove(path.c_str());
}

TEST(Checkpoint, VersionOneFilesStillLoad) {
  // Hand-built v1 image (no sentinel, no campaign metadata): the reader
  // keeps loading pre-campaign checkpoints unchanged.
  const io::Checkpoint c = sample_checkpoint();
  std::vector<unsigned char> out;
  const auto put = [&out](const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    out.insert(out.end(), b, b + n);
  };
  put("PTIMCKPT", 8);
  const size_t hashed_from = out.size();
  const uint32_t version = 1;
  put(&version, sizeof(version));
  put(&c.config_hash, 8);
  put(&c.step_index, 8);
  put(&c.state.time, 8);
  for (int d = 0; d < 3; ++d) put(&c.avec[d], 8);
  const uint64_t npw = c.state.phi.rows();
  const uint64_t nb = c.state.phi.cols();
  put(&npw, 8);
  put(&nb, 8);
  put(c.state.phi.data(), npw * nb * sizeof(cplx));
  put(c.state.sigma.data(), nb * nb * sizeof(cplx));
  const uint64_t sum =
      io::fnv1a(out.data() + hashed_from, out.size() - hashed_from);
  put(&sum, 8);

  const std::string path = "test_io_v1.ckpt";
  spit(path, out);
  const io::Checkpoint r = io::load_checkpoint(path, c.config_hash);
  EXPECT_TRUE(bitwise_equal(r.state.phi, c.state.phi));
  EXPECT_TRUE(bitwise_equal(r.state.sigma, c.state.sigma));
  EXPECT_EQ(r.step_index, c.step_index);
  EXPECT_TRUE(r.campaign_meta.empty());
  std::remove(path.c_str());
}
