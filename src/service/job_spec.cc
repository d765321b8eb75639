#include "service/job_spec.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <concepts>
#include <climits>
#include <cstdint>
#include <limits>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "baselines/cc_shapley.h"
#include "baselines/extended_gtb.h"
#include "baselines/extended_tmc.h"
#include "core/alternatives.h"
#include "core/exact.h"
#include "core/ipss.h"
#include "core/kgreedy.h"
#include "core/stratified.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "ml/logistic_regression.h"

namespace fedshap {

namespace {

// ---------------------------------------------------------------------------
// Scenario building

Result<std::unique_ptr<UtilityFunction>> BuildDigits(
    const ScenarioSpec& spec) {
  DigitsConfig digits;
  digits.image_size = 6;
  digits.num_classes = 5;
  digits.num_writers = 2 * spec.n;
  digits.pixel_noise = 0.3;
  Rng rng(spec.seed);
  FEDSHAP_ASSIGN_OR_RETURN(
      FederatedSource source,
      GenerateDigits(digits, 120 * spec.n + 200, rng));

  const size_t test_rows = 200;
  const size_t train_rows = source.data.size() - test_rows;
  FederatedSource train;
  train.num_groups = source.num_groups;
  train.data = source.data.Head(train_rows);
  train.group_ids.assign(source.group_ids.begin(),
                         source.group_ids.begin() + train_rows);
  std::vector<size_t> test_idx;
  test_idx.reserve(test_rows);
  for (size_t i = train_rows; i < source.data.size(); ++i) {
    test_idx.push_back(i);
  }
  Dataset test = source.data.Subset(test_idx);

  Result<std::vector<Dataset>> clients =
      Status::InvalidArgument("unset partition");
  if (spec.partition == "bygroup") {
    clients = PartitionByGroup(train, spec.n, rng);
  } else {
    PartitionConfig part;
    part.num_clients = spec.n;
    if (spec.partition == "iid") {
      part.scheme = PartitionScheme::kSameSizeSameDist;
    } else if (spec.partition == "skew") {
      part.scheme = PartitionScheme::kSameSizeDiffDist;
    } else if (spec.partition == "sizes") {
      part.scheme = PartitionScheme::kDiffSizeSameDist;
    } else if (spec.partition == "noisy") {
      part.scheme = PartitionScheme::kSameSizeNoisyLabel;
    } else {
      return Status::InvalidArgument("unknown partition '" + spec.partition +
                                     "' (bygroup|iid|skew|sizes|noisy)");
    }
    clients = PartitionDataset(train.data, part, rng);
  }
  FEDSHAP_RETURN_NOT_OK(clients.status());

  LogisticRegression prototype(test.num_features(), test.num_classes());
  Rng init(spec.seed + 17);
  prototype.InitializeParameters(init);
  FedAvgConfig config;
  config.rounds = spec.fl_rounds;
  config.local.epochs = spec.local_epochs;
  config.local.batch_size = spec.batch_size;
  config.local.learning_rate = spec.learning_rate;
  config.seed = spec.seed + 29;
  FEDSHAP_ASSIGN_OR_RETURN(
      std::unique_ptr<FedAvgUtility> utility,
      FedAvgUtility::Create(std::move(clients).value(), std::move(test),
                            prototype, config));
  return std::unique_ptr<UtilityFunction>(std::move(utility));
}

Result<std::unique_ptr<UtilityFunction>> BuildLinReg(
    const ScenarioSpec& spec) {
  LinearRegressionUtility::Params params;
  params.num_clients = spec.n;
  params.samples_per_client = spec.samples_per_client;
  params.noise_scale = spec.noise_scale;
  auto utility = std::make_unique<LinearRegressionUtility>(params);
  utility->Reseed(spec.seed);
  return std::unique_ptr<UtilityFunction>(std::move(utility));
}

// ---------------------------------------------------------------------------
// Token parsing

Result<int> ParseInteger(std::string_view key, std::string_view value) {
  errno = 0;
  char* end = nullptr;
  const std::string buffer(value);
  const long long parsed = std::strtoll(buffer.c_str(), &end, 10);
  if (errno != 0 || end == buffer.c_str() || *end != '\0' ||
      parsed < std::numeric_limits<int>::min() ||
      parsed > std::numeric_limits<int>::max()) {
    // The range check matters: silently truncating 2^32+1 to 1 would run
    // the job with a wrong budget instead of rejecting the line.
    return Status::InvalidArgument("bad integer for '" + std::string(key) +
                                   "': '" + buffer + "'");
  }
  return static_cast<int>(parsed);
}

Result<uint64_t> ParseUnsigned(std::string_view key, std::string_view value) {
  errno = 0;
  char* end = nullptr;
  const std::string buffer(value);
  const unsigned long long parsed = std::strtoull(buffer.c_str(), &end, 10);
  if (errno != 0 || end == buffer.c_str() || *end != '\0' ||
      buffer.find('-') != std::string::npos) {
    return Status::InvalidArgument("bad unsigned integer for '" +
                                   std::string(key) + "': '" + buffer + "'");
  }
  return static_cast<uint64_t>(parsed);
}

Result<double> ParseReal(std::string_view key, std::string_view value) {
  errno = 0;
  char* end = nullptr;
  const std::string buffer(value);
  const double parsed = std::strtod(buffer.c_str(), &end);
  if (errno != 0 || end == buffer.c_str() || *end != '\0') {
    return Status::InvalidArgument("bad number for '" + std::string(key) +
                                   "': '" + buffer + "'");
  }
  return parsed;
}

/// Builds a line of space-separated `key=value` fields in one reserved
/// string. Numbers go through std::to_chars: integers in decimal, doubles
/// as printf's %.17g, the shortest format that round-trips every double.
class FieldWriter {
 public:
  FieldWriter() { line_.reserve(192); }

  FieldWriter& Add(std::string_view key, std::string_view value) {
    Key(key);
    line_.append(value);
    return *this;
  }
  template <std::integral Int>
  FieldWriter& Add(std::string_view key, Int value) {
    char buffer[24];
    return Add(key, Chars(buffer, std::to_chars(buffer, buffer + 24, value)));
  }
  FieldWriter& Add(std::string_view key, double value) {
    char buffer[32];
    return Add(key, Chars(buffer, std::to_chars(buffer, buffer + 32, value,
                                                std::chars_format::general,
                                                17)));
  }

  std::string Take() { return std::move(line_); }

 private:
  void Key(std::string_view key) {
    if (!line_.empty()) line_ += ' ';
    line_.append(key);
    line_ += '=';
  }
  static std::string_view Chars(const char* buffer, std::to_chars_result r) {
    return std::string_view(buffer, static_cast<size_t>(r.ptr - buffer));
  }

  std::string line_;
};

/// Appends the scenario fields every kind shares past its seed.
void AddScenarioDetails(const ScenarioSpec& scenario, FieldWriter& fields) {
  if (scenario.kind == "digits") {
    fields.Add("partition", scenario.partition)
        .Add("rounds", scenario.fl_rounds)
        .Add("epochs", scenario.local_epochs)
        .Add("batch", scenario.batch_size)
        .Add("lr", scenario.learning_rate);
  } else if (scenario.kind == "linreg") {
    fields.Add("samples", scenario.samples_per_client)
        .Add("noise", scenario.noise_scale);
  }
}

bool IsValidName(std::string_view name) {
  if (name.empty() || name.size() > 128) return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '-' && c != '.') {
      return false;
    }
  }
  return true;
}

struct EstimatorNameEntry {
  EstimatorKind kind;
  const char* token;
};

constexpr EstimatorNameEntry kEstimatorNames[] = {
    {EstimatorKind::kIpss, "ipss"},
    {EstimatorKind::kAdaptiveIpss, "adaptive-ipss"},
    {EstimatorKind::kStratified, "stratified"},
    {EstimatorKind::kExactMc, "exact-mc"},
    {EstimatorKind::kExactCc, "exact-cc"},
    {EstimatorKind::kExactPerm, "exact-perm"},
    {EstimatorKind::kPermMc, "perm-mc"},
    {EstimatorKind::kKGreedy, "kgreedy"},
    {EstimatorKind::kExtTmc, "ext-tmc"},
    {EstimatorKind::kExtGtb, "ext-gtb"},
    {EstimatorKind::kCcShapley, "cc-shapley"},
    {EstimatorKind::kLeaveOneOut, "loo"},
    {EstimatorKind::kBanzhaf, "banzhaf"},
};

}  // namespace

const char* EstimatorKindName(EstimatorKind kind) {
  for (const EstimatorNameEntry& entry : kEstimatorNames) {
    if (entry.kind == kind) return entry.token;
  }
  return "unknown";
}

Result<EstimatorKind> ParseEstimatorKind(std::string_view token) {
  for (const EstimatorNameEntry& entry : kEstimatorNames) {
    if (token == entry.token) return entry.kind;
  }
  std::string known;
  for (const EstimatorNameEntry& entry : kEstimatorNames) {
    if (!known.empty()) known += "|";
    known += entry.token;
  }
  return Status::InvalidArgument("unknown estimator '" + std::string(token) +
                                 "' (" + known + ")");
}

bool IsResumable(EstimatorKind kind) {
  switch (kind) {
    case EstimatorKind::kIpss:
    case EstimatorKind::kStratified:
    case EstimatorKind::kExactMc:
    case EstimatorKind::kExactCc:
    case EstimatorKind::kPermMc:
      return true;
    default:
      return false;
  }
}

Result<std::unique_ptr<UtilityFunction>> ScenarioSpec::Build() const {
  if (n < 2 || n > 24) {
    return Status::InvalidArgument("scenario n must be in [2, 24], got " +
                                   std::to_string(n));
  }
  if (kind == "digits") return BuildDigits(*this);
  if (kind == "linreg") return BuildLinReg(*this);
  return Status::InvalidArgument("unknown scenario kind '" + kind +
                                 "' (digits|linreg)");
}

std::string ScenarioSpec::CanonicalKey() const {
  FieldWriter fields;
  fields.Add("kind", kind).Add("n", n).Add("seed", seed);
  AddScenarioDetails(*this, fields);
  return fields.Take();
}

Result<JobSpec> JobSpec::FromLine(std::string_view line) {
  JobSpec spec;
  bool saw_name = false;
  size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() &&
           std::isspace(static_cast<unsigned char>(line[pos]))) {
      ++pos;
    }
    if (pos >= line.size() || line[pos] == '#') break;
    size_t end = pos;
    while (end < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[end]))) {
      ++end;
    }
    const std::string_view token = line.substr(pos, end - pos);
    pos = end;

    const size_t eq = token.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return Status::InvalidArgument("job token is not key=value: '" +
                                     std::string(token) + "'");
    }
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = token.substr(eq + 1);

    if (key == "name") {
      if (!IsValidName(value)) {
        return Status::InvalidArgument(
            "job name must match [A-Za-z0-9_.-]+, got '" +
            std::string(value) + "'");
      }
      spec.name = std::string(value);
      saw_name = true;
    } else if (key == "estimator") {
      FEDSHAP_ASSIGN_OR_RETURN(spec.estimator, ParseEstimatorKind(value));
    } else if (key == "gamma") {
      FEDSHAP_ASSIGN_OR_RETURN(spec.gamma, ParseInteger(key, value));
    } else if (key == "k") {
      FEDSHAP_ASSIGN_OR_RETURN(spec.k, ParseInteger(key, value));
    } else if (key == "seed") {
      FEDSHAP_ASSIGN_OR_RETURN(spec.seed, ParseUnsigned(key, value));
    } else if (key == "chunk") {
      FEDSHAP_ASSIGN_OR_RETURN(spec.checkpoint_every,
                               ParseInteger(key, value));
    } else if (key == "allocation") {
      spec.allocation = std::string(value);
    } else if (key == "prefetch") {
      FEDSHAP_ASSIGN_OR_RETURN(spec.prefetch, ParseInteger(key, value));
    } else if (key == "fuse") {
      if (value == "on") {
        spec.fuse = true;
      } else if (value == "off") {
        spec.fuse = false;
      } else {
        return Status::InvalidArgument("bad value for 'fuse': '" +
                                       std::string(value) + "' (on|off)");
      }
    } else if (key == "scenario") {
      spec.scenario.kind = std::string(value);
    } else if (key == "n") {
      FEDSHAP_ASSIGN_OR_RETURN(spec.scenario.n, ParseInteger(key, value));
    } else if (key == "partition") {
      spec.scenario.partition = std::string(value);
    } else if (key == "scenario-seed") {
      FEDSHAP_ASSIGN_OR_RETURN(spec.scenario.seed,
                               ParseUnsigned(key, value));
    } else if (key == "rounds") {
      FEDSHAP_ASSIGN_OR_RETURN(spec.scenario.fl_rounds,
                               ParseInteger(key, value));
    } else if (key == "epochs") {
      FEDSHAP_ASSIGN_OR_RETURN(spec.scenario.local_epochs,
                               ParseInteger(key, value));
    } else if (key == "batch") {
      FEDSHAP_ASSIGN_OR_RETURN(spec.scenario.batch_size,
                               ParseInteger(key, value));
    } else if (key == "lr") {
      FEDSHAP_ASSIGN_OR_RETURN(spec.scenario.learning_rate,
                               ParseReal(key, value));
    } else if (key == "samples") {
      FEDSHAP_ASSIGN_OR_RETURN(spec.scenario.samples_per_client,
                               ParseInteger(key, value));
    } else if (key == "noise") {
      FEDSHAP_ASSIGN_OR_RETURN(spec.scenario.noise_scale,
                               ParseReal(key, value));
    } else {
      return Status::InvalidArgument("unknown job key '" + std::string(key) +
                                     "'");
    }
  }
  if (!saw_name) {
    return Status::InvalidArgument("job line is missing name=<job-name>");
  }
  if (spec.gamma < 1) {
    return Status::InvalidArgument("gamma must be >= 1");
  }
  if (spec.k < 1) {
    return Status::InvalidArgument("k must be >= 1");
  }
  if (spec.checkpoint_every < 1) {
    return Status::InvalidArgument("chunk must be >= 1");
  }
  if (spec.prefetch < 0) {
    return Status::InvalidArgument("prefetch must be >= 0");
  }
  if (spec.allocation != "fixed" && spec.allocation != "neyman") {
    return Status::InvalidArgument("unknown allocation '" + spec.allocation +
                                   "' (fixed|neyman)");
  }
  if (spec.allocation == "neyman" &&
      spec.estimator != EstimatorKind::kStratified) {
    return Status::InvalidArgument(
        "allocation=neyman requires estimator=stratified");
  }
  return spec;
}

std::string JobSpec::ToLine() const {
  FieldWriter fields;
  fields.Add("name", name)
      .Add("estimator", EstimatorKindName(estimator))
      .Add("gamma", gamma)
      .Add("k", k)
      .Add("seed", seed)
      .Add("chunk", checkpoint_every)
      .Add("allocation", allocation)
      .Add("scenario", scenario.kind)
      .Add("n", scenario.n)
      .Add("scenario-seed", scenario.seed);
  AddScenarioDetails(scenario, fields);
  return fields.Take();
}

Result<std::vector<JobSpec>> ParseJobFile(std::string_view contents) {
  std::vector<JobSpec> specs;
  size_t start = 0;
  int line_number = 0;
  while (start <= contents.size()) {
    size_t newline = contents.find('\n', start);
    if (newline == std::string_view::npos) newline = contents.size();
    const std::string_view line = contents.substr(start, newline - start);
    start = newline + 1;
    ++line_number;

    bool blank = true;
    for (char c : line) {
      if (c == '#') break;
      if (!std::isspace(static_cast<unsigned char>(c))) {
        blank = false;
        break;
      }
    }
    if (blank) {
      if (newline == contents.size()) break;
      continue;
    }

    Result<JobSpec> spec = JobSpec::FromLine(line);
    if (!spec.ok()) {
      return Status::InvalidArgument(
          "job file line " + std::to_string(line_number) + ": " +
          spec.status().message());
    }
    for (const JobSpec& existing : specs) {
      if (existing.name == spec->name) {
        return Status::InvalidArgument("job file line " +
                                       std::to_string(line_number) +
                                       ": duplicate job name '" +
                                       spec->name + "'");
      }
    }
    specs.push_back(std::move(spec).value());
    if (newline == contents.size()) break;
  }
  return specs;
}

namespace {
constexpr uint8_t kScenarioSpecCodecVersion = 1;
}  // namespace

void EncodeScenarioSpec(const ScenarioSpec& spec, ByteWriter& writer) {
  writer.PutU8(kScenarioSpecCodecVersion);
  writer.PutString(spec.kind);
  writer.PutVarint(static_cast<uint64_t>(spec.n));
  writer.PutString(spec.partition);
  writer.PutVarint(spec.seed);
  writer.PutVarint(static_cast<uint64_t>(spec.fl_rounds));
  writer.PutVarint(static_cast<uint64_t>(spec.local_epochs));
  writer.PutVarint(static_cast<uint64_t>(spec.batch_size));
  writer.PutDouble(spec.learning_rate);
  writer.PutVarint(static_cast<uint64_t>(spec.samples_per_client));
  writer.PutDouble(spec.noise_scale);
}

Result<ScenarioSpec> DecodeScenarioSpec(ByteReader& reader) {
  FEDSHAP_ASSIGN_OR_RETURN(uint8_t version, reader.GetU8());
  if (version == 0 || version > kScenarioSpecCodecVersion) {
    return Status::InvalidArgument("unsupported ScenarioSpec codec version " +
                                   std::to_string(version));
  }
  // The int fields are bounded, not truncated: n = 2^32 + 5 would
  // otherwise decode as 5 and pass Build's range check.
  ScenarioSpec spec;
  FEDSHAP_ASSIGN_OR_RETURN(spec.kind, reader.GetString());
  FEDSHAP_ASSIGN_OR_RETURN(spec.n, reader.GetVarintAtMost(INT_MAX));
  FEDSHAP_ASSIGN_OR_RETURN(spec.partition, reader.GetString());
  FEDSHAP_ASSIGN_OR_RETURN(spec.seed, reader.GetVarint());
  FEDSHAP_ASSIGN_OR_RETURN(spec.fl_rounds, reader.GetVarintAtMost(INT_MAX));
  FEDSHAP_ASSIGN_OR_RETURN(spec.local_epochs, reader.GetVarintAtMost(INT_MAX));
  FEDSHAP_ASSIGN_OR_RETURN(spec.batch_size, reader.GetVarintAtMost(INT_MAX));
  FEDSHAP_ASSIGN_OR_RETURN(spec.learning_rate, reader.GetDouble());
  FEDSHAP_ASSIGN_OR_RETURN(spec.samples_per_client, reader.GetVarintAtMost(INT_MAX));
  FEDSHAP_ASSIGN_OR_RETURN(spec.noise_scale, reader.GetDouble());
  return spec;
}

Result<std::unique_ptr<ResumableEstimator>> MakeSweep(const JobSpec& spec,
                                                      int n) {
  switch (spec.estimator) {
    case EstimatorKind::kIpss: {
      IpssConfig config;
      config.total_rounds = spec.gamma;
      config.seed = spec.seed;
      return std::unique_ptr<ResumableEstimator>(
          std::make_unique<IpssSweep>(n, config));
    }
    case EstimatorKind::kStratified: {
      if (spec.allocation == "neyman") {
        AdaptiveAllocationConfig config;
        config.total_rounds = spec.gamma;
        config.seed = spec.seed;
        return std::unique_ptr<ResumableEstimator>(
            std::make_unique<AdaptiveStratifiedSweep>(n, config));
      }
      StratifiedConfig config;
      config.total_rounds = spec.gamma;
      config.seed = spec.seed;
      return std::unique_ptr<ResumableEstimator>(
          std::make_unique<StratifiedSweep>(n, config));
    }
    case EstimatorKind::kExactMc:
      return std::unique_ptr<ResumableEstimator>(
          std::make_unique<ExactSweep>(n, SvScheme::kMarginal));
    case EstimatorKind::kExactCc:
      return std::unique_ptr<ResumableEstimator>(
          std::make_unique<ExactSweep>(n, SvScheme::kComplementary));
    case EstimatorKind::kPermMc: {
      PermutationMcConfig config;
      config.permutations = std::max(1, spec.gamma / std::max(1, n));
      config.seed = spec.seed;
      return std::unique_ptr<ResumableEstimator>(
          std::make_unique<PermutationMcSweep>(n, config));
    }
    default:
      return Status::InvalidArgument(
          std::string("estimator '") + EstimatorKindName(spec.estimator) +
          "' is not resumable; it runs as a one-shot job");
  }
}

Result<ValuationResult> RunOneShot(const JobSpec& spec,
                                   UtilitySession& session) {
  switch (spec.estimator) {
    case EstimatorKind::kAdaptiveIpss: {
      AdaptiveIpssConfig config;
      config.max_rounds = spec.gamma;
      // A budget ceiling below the default starting budget is legal:
      // start at the ceiling instead of failing the config validation.
      config.initial_rounds = std::min(config.initial_rounds, spec.gamma);
      config.seed = spec.seed;
      return AdaptiveIpssShapley(session, config);
    }
    case EstimatorKind::kExactPerm:
      return ExactShapleyPermutation(session);
    case EstimatorKind::kKGreedy:
      return KGreedyShapley(session, spec.k);
    case EstimatorKind::kExtTmc: {
      ExtendedTmcConfig config;
      config.permutations = spec.gamma;
      config.seed = spec.seed;
      return ExtendedTmcShapley(session, config);
    }
    case EstimatorKind::kExtGtb: {
      ExtendedGtbConfig config;
      config.samples = spec.gamma;
      config.seed = spec.seed;
      return ExtendedGtbShapley(session, config);
    }
    case EstimatorKind::kCcShapley: {
      CcShapleyConfig config;
      config.rounds = spec.gamma;
      config.seed = spec.seed;
      return CcShapley(session, config);
    }
    case EstimatorKind::kLeaveOneOut:
      return LeaveOneOut(session);
    case EstimatorKind::kBanzhaf: {
      BanzhafConfig config;
      config.samples = spec.gamma;
      config.seed = spec.seed;
      return MonteCarloBanzhaf(session, config);
    }
    default:
      return Status::InvalidArgument(
          std::string("estimator '") + EstimatorKindName(spec.estimator) +
          "' is resumable; run it through MakeSweep");
  }
}

}  // namespace fedshap
