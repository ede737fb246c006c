#include "perfbench/oracle.h"

#include <algorithm>
#include <thread>

#include "asp/parser.h"
#include "perfbench/stats.h"
#include "server/wire.h"
#include "streamrule/engine.h"

namespace perfbench {

using namespace streamasp;

WindowAnswers CanonicalWindowAnswers(const std::vector<std::string>& lines) {
  WindowAnswers answers;
  answers.reserve(lines.size());
  for (const std::string& line : lines) {
    std::string joined;
    for (const std::string& atom : CanonicalAnswer(line)) {
      if (!joined.empty()) joined += ", ";
      joined += atom;
    }
    answers.push_back(std::move(joined));
  }
  std::sort(answers.begin(), answers.end());
  return answers;
}

namespace {

/// Reasons distinct windows [begin, end) of `plan` on one private engine.
Status OracleSlice(const SessionPlan& plan, size_t begin, size_t end,
                   std::vector<WindowAnswers>* answers) {
  SymbolTablePtr symbols = MakeSymbolTable();
  Parser parser(symbols);
  STREAMASP_ASSIGN_OR_RETURN(Program program,
                             parser.ParseProgram(plan.program_text));
  EngineConfig config;
  config.pipeline.window_size = plan.window;  // Tumbling: one push each.
  config.pipeline.async = false;
  std::vector<std::string> rendered;
  Status failure = OkStatus();
  STREAMASP_ASSIGN_OR_RETURN(
      std::unique_ptr<StreamEngine> engine,
      StreamEngine::Create(&program, config, [&](EmissionEvent& event) {
        if (event.kind != EmissionEvent::Kind::kResult) {
          failure = InternalError("oracle window did not produce a result");
          return;
        }
        for (const GroundAnswer& answer : event.result->answers) {
          rendered.push_back(AnswerToString(answer, *symbols));
        }
      }));
  for (size_t k = begin; k < end; ++k) {
    std::vector<Triple> batch;
    batch.reserve(plan.distinct_windows[k].size());
    for (const std::string& line : plan.distinct_windows[k]) {
      STREAMASP_ASSIGN_OR_RETURN(Triple triple,
                                 ParseTripleLine(line, *symbols));
      batch.push_back(triple);
    }
    rendered.clear();
    engine->PushBatch(batch);
    engine->Flush();
    STREAMASP_RETURN_IF_ERROR(failure);
    (*answers)[k] = CanonicalWindowAnswers(rendered);
  }
  return OkStatus();
}

}  // namespace

Status ComputeOracle(const SessionPlan& plan,
                     std::vector<WindowAnswers>* answers) {
  const size_t count = plan.distinct_windows.size();
  answers->assign(count, {});
  const size_t threads = std::max<size_t>(
      1, std::min<size_t>(std::thread::hardware_concurrency(), count));
  std::vector<Status> statuses(threads, OkStatus());
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    const size_t begin = count * t / threads;
    const size_t end = count * (t + 1) / threads;
    workers.emplace_back([&, t, begin, end] {
      statuses[t] = OracleSlice(plan, begin, end, answers);
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (const Status& status : statuses) STREAMASP_RETURN_IF_ERROR(status);
  return OkStatus();
}

}  // namespace perfbench
