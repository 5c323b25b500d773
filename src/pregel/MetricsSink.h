//===- pregel/MetricsSink.h - Rendering run metrics --------------------------===//
///
/// \file
/// Consumers of RunStats: a sink abstraction plus the two bundled
/// implementations — a human-readable table renderer (gmpc --stats/--trace)
/// and a versioned machine-readable JSON emitter (gmpc --stats-json, the
/// bench per-run records). The JSON schema is documented in
/// docs/observability.md; bump ReportSchemaVersion on breaking changes.
///
//===----------------------------------------------------------------------===//

#ifndef GM_PREGEL_METRICSSINK_H
#define GM_PREGEL_METRICSSINK_H

#include "pregel/Runtime.h"
#include "support/PassStatistics.h"

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

namespace gm::json {
class Writer;
}

namespace gm::pregel {

/// Identity of one run: what executed, on what input, under which engine
/// configuration. Rendered into report headers and JSON records.
struct RunMetadata {
  std::string Program; ///< compiled procedure / program name
  std::string Graph;   ///< input description (file path, "rmat(n,e)", ...)
  uint32_t NumNodes = 0;
  uint64_t NumEdges = 0;
  unsigned Workers = 0;
  bool Threaded = false;
  uint64_t Seed = 0;
  /// Hardware threads of the recording host (0 = not recorded). Scaling
  /// artifacts are meaningless without it: a 1-core container cannot show
  /// threaded speedup no matter how good the engine is.
  unsigned HostCores = 0;
  /// Mailbox wire format of the run ("packed", the engine's only format;
  /// "" = not recorded). The regression gate keys run records on it.
  std::string MessageFormat;
  /// Bytes one message occupies in the engine's mailboxes — the packed
  /// record size (0 = not recorded).
  unsigned MailboxRecordBytes = 0;
  /// Partition strategy ("hash", "range", ...; "" = not recorded) and the
  /// LALP high-degree threshold (0 = LALP off).
  std::string Partition;
  uint32_t LalpThreshold = 0;
  /// Execution backend that actually ran ("interp", "native-registry",
  /// "native-jit"; "" = not recorded). Perf comparisons hinge on it.
  std::string Backend;
  /// Traversal schedule the run was configured with ("auto", "dense",
  /// "sparse"; "" = not recorded). See docs/scheduling.md.
  std::string Schedule;
  /// Per-worker owned vertex / out-edge counts under that partition
  /// (empty = not recorded). Parallel vectors indexed by worker id.
  std::vector<uint64_t> WorkerVertices;
  std::vector<uint64_t> WorkerEdges;
};

/// Schema identity of the JSON run report.
/// v2: totals gained peak_rss_bytes and a phase_seconds breakdown;
/// superstep/worker records gained deliver_seconds (and combine_seconds per
/// worker); barrier_seconds narrowed to the sequential coordination slice
/// (v1 folded the delivery merge into it).
/// v3: the conflated active_vertices split into ran_vertices /
/// active_after (superstep and worker records); superstep records gained
/// schedule_mode and frontier_size, totals gained sparse_supersteps, and
/// config gained schedule. See docs/observability.md.
inline constexpr const char *ReportSchemaName = "gm.run-report";
inline constexpr int ReportSchemaVersion = 3;

/// Where finished runs are reported. One sink may receive many runs (the
/// benches report every repetition).
class MetricsSink {
public:
  virtual ~MetricsSink();

  /// Reports one finished run. \p Compiler carries the pass statistics of
  /// the compilation that produced the program; null when not collected.
  virtual void report(const RunMetadata &Meta, const RunStats &Stats,
                      const PassStatistics *Compiler = nullptr) = 0;
};

/// Human-readable renderer: run summary with load-imbalance factors,
/// per-worker totals, compiler pass table, and (with \p WithTrace) the
/// per-superstep trace table.
class TableSink : public MetricsSink {
public:
  explicit TableSink(std::FILE *Out, bool WithTrace = false)
      : Out(Out), WithTrace(WithTrace) {}

  void report(const RunMetadata &Meta, const RunStats &Stats,
              const PassStatistics *Compiler = nullptr) override;

private:
  std::FILE *Out;
  bool WithTrace;
};

/// Machine-readable emitter. Buffers every reported run and writes one
/// versioned JSON document — {"schema", "version", "runs": [...]} — on
/// close() (called from the destructor if not earlier). Path "-" writes to
/// stdout.
class JsonSink : public MetricsSink {
public:
  explicit JsonSink(std::string Path) : Path(std::move(Path)) {}
  ~JsonSink() override;

  void report(const RunMetadata &Meta, const RunStats &Stats,
              const PassStatistics *Compiler = nullptr) override;

  /// Writes the document. Returns false (with \p Err set) when the output
  /// file cannot be written. Idempotent.
  bool close(std::string *Err = nullptr);

private:
  struct Record {
    RunMetadata Meta;
    RunStats Stats;
    std::optional<PassStatistics> Compiler;
  };

  std::string Path;
  std::vector<Record> Records;
  bool Closed = false;
};

/// Emits the canonical JSON object for one run (the element type of the
/// report's "runs" array) into an already-open writer.
void writeRunJson(json::Writer &W, const RunMetadata &Meta,
                  const RunStats &Stats,
                  const PassStatistics *Compiler = nullptr);

} // namespace gm::pregel

#endif // GM_PREGEL_METRICSSINK_H
