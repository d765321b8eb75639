#include "fl/fedavg.h"

#include "fl/server.h"
#include "util/logging.h"

namespace fedshap {

Result<std::unique_ptr<Model>> TrainFedAvg(
    const Model& prototype, const std::vector<const FlClient*>& clients,
    const FedAvgConfig& config, TrainingLog* log) {
  if (config.rounds < 0) {
    return Status::InvalidArgument("rounds must be >= 0");
  }
  std::unique_ptr<Model> model = prototype.Clone();
  std::vector<float> global = model->GetParameters();
  if (log != nullptr) {
    log->initial_params = global;
    log->rounds.clear();
  }

  // Mix the coalition into the seed so different coalitions draw
  // independent local-SGD noise, deterministically. Clients without data
  // are excluded from the mix: they contribute nothing to training, so a
  // coalition with and without them must produce the *same* model — the
  // exact null-player property (Def. 2(i)).
  uint64_t mixed_seed = config.seed;
  std::vector<const FlClient*> participants;
  for (const FlClient* client : clients) {
    FEDSHAP_CHECK(client != nullptr);
    if (client->num_samples() == 0) continue;  // null player: no update
    mixed_seed = mixed_seed * 0x9E3779B97F4A7C15ULL +
                 static_cast<uint64_t>(client->id()) + 0x7F4A7C15ULL;
    participants.push_back(client);
  }
  Rng rng(mixed_seed);

  if (participants.empty() || config.rounds == 0) {
    if (log != nullptr) log->final_params = global;
    return model;
  }

  // Clients train one after another into one scratch model: LocalUpdate
  // resets its parameters to `global` before each local training.
  std::unique_ptr<Model> scratch = prototype.Clone();
  for (int round = 0; round < config.rounds; ++round) {
    RoundRecord record;
    if (log != nullptr) record.global_before = global;
    std::vector<std::vector<float>> local_params;
    std::vector<double> weights;
    local_params.reserve(participants.size());
    weights.reserve(participants.size());
    for (const FlClient* client : participants) {
      // Each client's stream is forked in client order; local training
      // draws only from its fork, never from `rng`.
      Rng client_rng = rng.Fork();
      FEDSHAP_ASSIGN_OR_RETURN(
          std::vector<float> updated,
          client->LocalUpdate(global, *scratch, config.local, client_rng));
      if (log != nullptr) {
        std::vector<float> delta(updated.size());
        for (size_t p = 0; p < updated.size(); ++p) {
          delta[p] = updated[p] - global[p];
        }
        record.client_deltas.push_back(std::move(delta));
        record.client_ids.push_back(client->id());
        record.client_weights.push_back(
            static_cast<double>(client->num_samples()));
      }
      weights.push_back(static_cast<double>(client->num_samples()));
      local_params.push_back(std::move(updated));
    }
    FEDSHAP_ASSIGN_OR_RETURN(global, FedAvgAggregate(local_params, weights));
    if (log != nullptr) log->rounds.push_back(std::move(record));
  }
  FEDSHAP_RETURN_NOT_OK(model->SetParameters(global));
  if (log != nullptr) log->final_params = global;
  return model;
}

}  // namespace fedshap
