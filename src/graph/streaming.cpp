#include "graph/streaming.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <memory>
#include <thread>
#include <utility>

#include "common/bounded_queue.hpp"
#include "common/error.hpp"
#include "common/thread_annotations.hpp"
#include "common/thread_pool.hpp"
#include "graph/io.hpp"

namespace sc::graph {

namespace {

std::atomic<std::size_t> g_ingest_chunk_bytes{0};  // 0 = default (kIoBufferBytes)
std::atomic<ThreadPool*> g_ingest_pool{nullptr};

/// Default ingest chunk size, and the longest line the reader accepts.
constexpr std::size_t kIoBufferBytes = std::size_t{1} << 18;  // 256 KiB

const char* skip_ws(const char* p) {
  while (*p == ' ' || *p == '\t') ++p;
  return p;
}

/// Strict in-place unsigned parse; rejects sign characters and non-digits so
/// hostile ids ('-1', '3.5') fail loudly instead of wrapping or truncating.
std::uint64_t parse_u64_field(const char*& p, const char* what, const char* line) {
  p = skip_ws(p);
  SC_CHECK(*p >= '0' && *p <= '9', "malformed " << what << " in line '" << line << "'");
  std::uint64_t value = 0;
  while (*p >= '0' && *p <= '9') {
    const std::uint64_t digit = static_cast<std::uint64_t>(*p - '0');
    SC_CHECK(value <= (std::numeric_limits<std::uint64_t>::max() - digit) / 10,
             what << " overflows in line '" << line << "'");
    value = value * 10 + digit;
    ++p;
  }
  SC_CHECK(*p == '\0' || *p == ' ' || *p == '\t',
           "malformed " << what << " in line '" << line << "'");
  return value;
}

double parse_double_field(const char*& p, const char* what, const char* line) {
  p = skip_ws(p);
  char* end = nullptr;
  const double value = std::strtod(p, &end);
  SC_CHECK(end != p, "malformed " << what << " in line '" << line << "'");
  SC_CHECK(*end == '\0' || *end == ' ' || *end == '\t',
           "malformed " << what << " in line '" << line << "'");
  p = end;
  return value;
}

void check_line_consumed(const char* p, const char* where, const char* line) {
  p = skip_ws(p);
  SC_CHECK(*p == '\0', "trailing garbage after " << where << " in line '" << line << "'");
}

/// Parses a '<keyword> <count>' header with the same fail-before-allocate
/// contract as graph::read_graph, plus a file-size plausibility bound: a
/// record occupies at least `min_record_bytes` on disk, so a count the file
/// cannot possibly hold is rejected before sizing any array by it.
std::size_t parse_count_line(const char* line, const char* keyword,
                             std::uint64_t file_size, std::size_t min_record_bytes) {
  const char* p = line;
  const std::size_t klen = std::strlen(keyword);
  SC_CHECK(std::strncmp(p, keyword, klen) == 0 && (p[klen] == ' ' || p[klen] == '\t'),
           "expected '" << keyword << " <count>', got '" << line << "'");
  p += klen;
  const std::uint64_t count = parse_u64_field(p, keyword, line);
  check_line_consumed(p, keyword, line);
  SC_CHECK(count <= kMaxIngestCount,
           keyword << " count " << count << " exceeds the ingest cap " << kMaxIngestCount);
  SC_CHECK(count <= file_size / min_record_bytes,
           keyword << " count " << count << " exceeds what a " << file_size
                   << "-byte file can hold");
  return static_cast<std::size_t>(count);
}

}  // namespace

CsrGraph::CsrGraph(std::string name, std::vector<float> ipt, std::vector<float> selectivity,
                   std::vector<std::uint64_t> out_offsets, std::vector<NodeId> dst,
                   std::vector<float> payload, std::vector<float> rate_factor)
    : ipt_(std::move(ipt)),
      selectivity_(std::move(selectivity)),
      out_offsets_(std::move(out_offsets)),
      dst_(std::move(dst)),
      payload_(std::move(payload)),
      rate_factor_(std::move(rate_factor)),
      name_(std::move(name)) {
  const std::size_t n = ipt_.size();
  const std::size_t m = dst_.size();
  SC_CHECK(n > 0, "CsrGraph needs at least one node");
  SC_CHECK(n < static_cast<std::size_t>(kInvalidNode),
           "node count " << n << " exceeds the 32-bit NodeId space");
  SC_CHECK(selectivity_.size() == n, "selectivity array does not match node count");
  SC_CHECK(out_offsets_.size() == n + 1 && out_offsets_.front() == 0 &&
               out_offsets_.back() == m,
           "out_offsets is not a prefix-sum over the edge array");
  SC_CHECK(payload_.size() == m && rate_factor_.size() == m,
           "edge feature arrays do not match edge count");
  for (std::size_t v = 0; v < n; ++v) {
    SC_CHECK(out_offsets_[v] <= out_offsets_[v + 1], "out_offsets must be monotone");
  }
  for (const NodeId t : dst_) {
    SC_CHECK(t < n, "edge target " << t << " out of range");
  }
}

std::size_t CsrGraph::footprint_bytes() const {
  return ipt_.capacity() * sizeof(float) + selectivity_.capacity() * sizeof(float) +
         out_offsets_.capacity() * sizeof(std::uint64_t) +
         dst_.capacity() * sizeof(NodeId) + payload_.capacity() * sizeof(float) +
         rate_factor_.capacity() * sizeof(float);
}

namespace {

// ---------------------------------------------------------------------------
// Pipelined chunk-parallel reader (DESIGN.md §9).
//
//   reader thread --parse queue--> parse loops --ready ring--> committer
//        ^                                                        |
//        +------------------------- q_free <---------------------+
//
// The reader thread owns all file I/O: it fills fixed-size blocks, stitches
// the partial line at each block boundary onto the next block, splits whole
// lines (skipping blanks and comments) and parses the two leading headers.
// Parse loops on pool workers parse node/edge records chunk-parallel, and
// the committer (the calling thread) parses its next chunk itself whenever
// no parse loop has taken it, so a read needs no parse loop to finish. The committer commits chunk results strictly in sequence order,
// so every byte of output — and the choice of which malformed line aborts
// the read — is a pure function of the file, never of thread scheduling.
// ---------------------------------------------------------------------------

/// One in-flight chunk: a stitched block of whole lines plus the parser's
/// results. `window` chunks recycle through q_free, so steady-state ingest
/// stops allocating once every buffer has warmed up.
struct IngestChunk {
  std::size_t seq = 0;
  std::size_t first_idx = 0;       ///< global content-line index of lines[0]
  std::vector<char> data;          ///< stitched text, lines NUL-terminated
  std::vector<const char*> lines;  ///< content-line starts (past leading ws)
  // Parse outputs, in file order.
  std::vector<float> node_ipt, node_sel;
  std::vector<CsrEdgeRec> edges;
  std::exception_ptr error;   ///< first malformed line of the chunk, if any
  std::size_t error_idx = 0;  ///< its global content-line index

  void reset() {
    data.clear();
    lines.clear();
    node_ipt.clear();
    node_sel.clear();
    edges.clear();
    error = nullptr;
    error_idx = 0;
  }
};

class IngestPipeline {
public:
  /// Starts the reader thread. `parsers` is the number of parse loops that
  /// may run; the window keeps three chunks beyond one per parser in flight.
  IngestPipeline(std::string path, std::FILE* file, std::uint64_t file_size,
                 std::size_t chunk_bytes, std::size_t parsers)
      : path_(std::move(path)),
        file_(file),
        file_size_(file_size),
        chunk_bytes_(chunk_bytes),
        window_(parsers + 3),
        q_free_(window_),
        queued_(window_, nullptr),
        ready_(window_, nullptr) {
    chunks_.reserve(window_);
    for (std::size_t i = 0; i < window_; ++i) {
      chunks_.push_back(std::make_unique<IngestChunk>());
      IngestChunk* c = chunks_.back().get();
      q_free_.try_push(std::move(c));
    }
    reader_ = std::thread([this] { read_thread(); });
  }

  ~IngestPipeline() {
    try {
      finish();
    } catch (...) {  // join failing leaves nothing to recover; defend the unwinding path
    }
  }

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// The committer's next chunk: chunk `seq`, parsed, or nullptr once no
  /// chunk with that sequence number will ever exist. Parses chunk `seq` on
  /// this thread when it is queued and no parse loop has taken it; later
  /// chunks are left to the parse loops, since every commit waits for the
  /// committer.
  IngestChunk* next_parsed(std::size_t seq) SC_EXCLUDES(m_) {
    const std::size_t slot = seq % window_;
    for (;;) {
      IngestChunk* c = nullptr;
      {
        MutexLock lock(m_);
        cv_commit_.wait(m_, [&]() SC_REQUIRES(m_) {
          return ready_[slot] != nullptr || (parse_next_ == seq && seq < pushed_) ||
                 (reader_done_ && pushed_ <= seq);
        });
        if (ready_[slot] != nullptr) return std::exchange(ready_[slot], nullptr);
        if (pushed_ <= seq) return nullptr;  // the reader stopped before `seq`
        c = take_queued();
      }
      parse_chunk(c);
      return c;
    }
  }

  /// Parse-loop body: parses queued chunks until the reader is done and the
  /// queue is empty, or the committer has stopped the pipeline. Never
  /// throws: malformed lines are captured per chunk and rethrown by the
  /// committer in file order.
  void parse_loop() SC_EXCLUDES(m_) {
    for (;;) {
      IngestChunk* c = nullptr;
      {
        MutexLock lock(m_);
        cv_parse_.wait(m_, [&]() SC_REQUIRES(m_) {
          return stopped_ || reader_done_ || parse_next_ < pushed_;
        });
        if (stopped_ || parse_next_ == pushed_) return;
        c = take_queued();
      }
      parse_chunk(c);
      publish(c);
    }
  }

  /// Returns a committed chunk's buffers to the reader.
  void recycle(IngestChunk* c) { q_free_.try_push(std::move(c)); }

  /// Stops the pipeline: parse loops return, the reader is joined.
  /// Idempotent; called on both the success and the exception path before
  /// any reader state is read.
  void finish() SC_EXCLUDES(m_) {
    {
      MutexLock lock(m_);
      stopped_ = true;
    }
    cv_parse_.notify_all();
    q_free_.close();
    if (reader_.joinable()) reader_.join();
  }

  void rethrow_reader_error() SC_EXCLUDES(m_) {
    MutexLock lock(m_);
    if (reader_error_ != nullptr) std::rethrow_exception(reader_error_);
  }

  // Valid once any chunk has been delivered (the reader publishes them
  // before pushing the first chunk) or after finish().
  const std::string& name() const { return name_; }
  std::size_t num_nodes() const { return n_; }
  std::uint64_t file_size() const { return file_size_; }

  // Pipeline stats; read after finish() (join provides the ordering).
  std::size_t bytes_read() const { return bytes_read_; }
  std::size_t chunk_count() SC_EXCLUDES(m_) {
    MutexLock lock(m_);
    return pushed_;
  }
  std::size_t stitches() const { return stitches_; }
  std::size_t queue_peak() const { return queue_peak_; }

private:
  /// Reader-thread body: always marks reader_done_ on the way out so parse
  /// loops drain and the committer never hangs.
  void read_thread() {
    try {
      read_all();
    } catch (...) {
      MutexLock lock(m_);
      reader_error_ = std::current_exception();
    }
    {
      MutexLock lock(m_);
      reader_done_ = true;
    }
    cv_parse_.notify_all();
    cv_commit_.notify_one();
  }

  // The pipeline's only blocking-read site: everything downstream is fed
  // through the parse queue and the ready ring (enforced by sc_analyze's
  // streaming-blocking-read rule).
  // sc-lint: reader-thread
  void read_all() {
    std::vector<IngestChunk*> got;
    got.reserve(1);
    std::vector<char> carry;
    bool eof = false;
    while (!eof) {
      got.clear();
      if (q_free_.pop_batch(got, 1, std::chrono::microseconds(0)) == 0) return;
      IngestChunk* c = got[0];
      if (stopping()) return;
      c->reset();
      if (!carry.empty()) {
        // Chunk-boundary stitch: the previous block's partial tail line
        // becomes the head of this chunk.
        ++stitches_;
        c->data.insert(c->data.end(), carry.begin(), carry.end());
        carry.clear();
      }
      // Top the chunk up until it holds at least one complete line (or EOF);
      // a line may not outgrow the default chunk size.
      std::size_t split_end = 0;
      for (;;) {
        const std::size_t off = c->data.size();
        c->data.resize(off + chunk_bytes_);
        const std::size_t got_bytes =
            std::fread(c->data.data() + off, 1, chunk_bytes_, file_);
        SC_CHECK(got_bytes > 0 || std::feof(file_) != 0,
                 "read error in '" << path_ << "'");
        bytes_read_ += got_bytes;
        c->data.resize(off + got_bytes);
        eof = std::feof(file_) != 0;
        if (eof) {
          split_end = c->data.size();  // include a final unterminated line
          break;
        }
        // Only the bytes just read can hold a newline: the stitched head is
        // a partial line, and so was everything an earlier top-up read.
        std::size_t last_nl = c->data.size();
        while (last_nl > off && c->data[last_nl - 1] != '\n') --last_nl;
        if (last_nl > off) {
          split_end = last_nl;
          break;
        }
        SC_CHECK(c->data.size() < kIoBufferBytes,
                 "line exceeds the " << kIoBufferBytes << "-byte ingest buffer in '"
                                     << path_ << "'");
      }
      carry.assign(c->data.begin() + static_cast<std::ptrdiff_t>(split_end),
                   c->data.end());
      c->data.resize(split_end);
      c->data.push_back('\0');  // NUL slot for a final unterminated line
      bool carve_failed = false;
      try {
        carve_lines(c, split_end);
      } catch (...) {
        // Over-long line or malformed header: attach it to the chunk at the
        // position the failing line occupies (every line carved so far has a
        // smaller index, so an earlier malformed record still wins) and
        // record it as the reader outcome for the committer's EOF drain.
        c->error = std::current_exception();
        c->error_idx = content_idx_;
        {
          MutexLock lock(m_);
          reader_error_ = std::current_exception();
        }
        carve_failed = true;
      }
      if (!c->lines.empty()) {
        if (!push(c)) return;  // stopped
      } else if (!carve_failed) {
        if (!q_free_.try_push(std::move(c))) return;
      }
      if (carve_failed) return;
    }
    SC_CHECK(content_idx_ > 0,
             "unexpected EOF: expected 'streamgraph' in '" << path_ << "'");
    SC_CHECK(content_idx_ > 1, "unexpected EOF: expected 'nodes' in '" << path_ << "'");
  }

  /// Splits data[0, split_end) into lines (strip trailing CR/whitespace,
  /// NUL-terminate, skip blanks/comments, point past leading whitespace) and
  /// consumes the two leading header lines itself.
  void carve_lines(IngestChunk* c, std::size_t split_end) {
    char* base = c->data.data();
    std::size_t pos = 0;
    while (pos < split_end) {
      char* s = base + pos;
      char* nl = static_cast<char*>(std::memchr(s, '\n', split_end - pos));
      char* e = nl != nullptr ? nl : base + split_end;
      SC_CHECK(static_cast<std::size_t>(e - s) < kIoBufferBytes,
               "line exceeds the " << kIoBufferBytes << "-byte ingest buffer in '"
                                   << path_ << "'");
      pos = static_cast<std::size_t>(e - base) + (nl != nullptr ? 1 : 0);
      while (e > s && (e[-1] == '\r' || e[-1] == ' ' || e[-1] == '\t')) --e;
      *e = '\0';
      const char* p = s;
      while (*p == ' ' || *p == '\t') ++p;
      if (*p == '\0' || *p == '#') continue;  // blank / comment
      const std::size_t idx = content_idx_++;
      if (idx == 0) {
        SC_CHECK(std::strncmp(p, "streamgraph", 11) == 0,
                 "expected 'streamgraph', got '" << p << "'");
        const char* q = skip_ws(p + 11);
        const char* start = q;
        while (*q != '\0' && *q != ' ' && *q != '\t') ++q;
        name_.assign(start, q);
        check_line_consumed(q, "graph name", p);
      } else if (idx == 1) {
        // Minimum on-disk record sizes: a node line is at least "0 0\n" (4
        // bytes), an edge line at least "0 1 0 0\n" (8); 2 and 4 keep the
        // bound safe for exotic-but-legal whitespace. Publishing n_ here
        // happens-before every push of a chunk that needs it: parsers and
        // the committer only take chunks under m_.
        n_ = parse_count_line(p, "nodes", file_size_, 2);
        SC_CHECK(n_ > 0, "stream graph must have at least one node");
      } else {
        if (c->lines.empty()) c->first_idx = idx;
        c->lines.push_back(p);
      }
    }
  }

  /// Appends `c` to the parse queue as the next chunk in sequence. Returns
  /// false once the pipeline has stopped.
  bool push(IngestChunk* c) SC_EXCLUDES(m_) {
    {
      MutexLock lock(m_);
      if (stopped_) return false;
      c->seq = pushed_;
      queued_[pushed_ % window_] = c;
      ++pushed_;
      queue_peak_ = std::max(queue_peak_, pushed_ - parse_next_);
    }
    cv_parse_.notify_one();
    cv_commit_.notify_one();  // the chunk may be the one the committer awaits
    return true;
  }

  bool stopping() SC_EXCLUDES(m_) {
    MutexLock lock(m_);
    return stopped_;
  }

  /// Takes the oldest queued chunk (parse_next_ < pushed_).
  IngestChunk* take_queued() SC_REQUIRES(m_) {
    return std::exchange(queued_[parse_next_++ % window_], nullptr);
  }

  /// Hands a parsed chunk to the committer.
  void publish(IngestChunk* c) SC_EXCLUDES(m_) {
    {
      MutexLock lock(m_);
      ready_[c->seq % window_] = c;
    }
    cv_commit_.notify_one();
  }

  /// Parses every content line of one chunk by its global index: node
  /// records, then the 'edges' header (left to the committer, which owns the
  /// edge count), then speculatively edge records — the committer discards
  /// results at or past the 'end' line once the edge count is known.
  void parse_chunk(IngestChunk* c) {
    const std::size_t n = n_;
    const std::size_t header_idx = n + 2;
    for (std::size_t i = 0; i < c->lines.size(); ++i) {
      const std::size_t idx = c->first_idx + i;
      const char* line = c->lines[i];
      try {
        if (idx < header_idx) {
          const char* p = line;
          const double node_ipt = parse_double_field(p, "node ipt", line);
          const double sel = parse_double_field(p, "node selectivity", line);
          check_line_consumed(p, "node record", line);
          SC_CHECK(node_ipt >= 0.0 && sel >= 0.0,
                   "negative node feature in line '" << line << "'");
          c->node_ipt.push_back(static_cast<float>(node_ipt));
          c->node_sel.push_back(static_cast<float>(sel));
        } else if (idx > header_idx) {
          const char* p = line;
          const std::uint64_t src = parse_u64_field(p, "edge source", line);
          const std::uint64_t dst_id = parse_u64_field(p, "edge target", line);
          const double payload = parse_double_field(p, "edge payload", line);
          const double rf = parse_double_field(p, "edge rate_factor", line);
          check_line_consumed(p, "edge record", line);
          SC_CHECK(src < n && dst_id < n,
                   "edge endpoint out of range in line '" << line << "' (graph has "
                                                          << n << " nodes)");
          SC_CHECK(src != dst_id, "self-loop edge in line '" << line << "'");
          SC_CHECK(payload >= 0.0 && rf >= 0.0,
                   "negative edge feature in line '" << line << "'");
          // src/dst < n <= kMaxIngestCount, so the narrowing is exact.
          c->edges.push_back({static_cast<NodeId>(src), static_cast<NodeId>(dst_id),  // sc-lint: allow(unchecked-id-narrowing)
                              static_cast<float>(payload), static_cast<float>(rf)});
        }
      } catch (...) {
        c->error = std::current_exception();
        c->error_idx = idx;
        return;
      }
    }
  }

  const std::string path_;
  std::FILE* const file_;  ///< owned by the caller; reader thread is the sole user
  const std::uint64_t file_size_;
  const std::size_t chunk_bytes_;
  const std::size_t window_;

  std::vector<std::unique_ptr<IngestChunk>> chunks_;
  common::BoundedQueue<IngestChunk*> q_free_;

  Mutex m_;
  CondVar cv_parse_;   ///< parse loops wait here for queued chunks
  CondVar cv_commit_;  ///< the committer waits here for its next chunk
  // Chunks pushed but not yet taken by a parser (seqs [parse_next_,
  // pushed_)) and parsed chunks awaiting the committer, both by seq % window_:
  // at most window_ chunks are in flight, so no two share a slot.
  std::vector<IngestChunk*> queued_ SC_GUARDED_BY(m_);
  std::vector<IngestChunk*> ready_ SC_GUARDED_BY(m_);
  std::size_t pushed_ SC_GUARDED_BY(m_) = 0;
  std::size_t parse_next_ SC_GUARDED_BY(m_) = 0;
  bool reader_done_ SC_GUARDED_BY(m_) = false;
  bool stopped_ SC_GUARDED_BY(m_) = false;
  std::exception_ptr reader_error_ SC_GUARDED_BY(m_);

  // Reader-thread state. name_/n_ are published before the first dependent
  // chunk is pushed; the counters are read by the committer only after
  // finish() joins the reader (queue_peak_ is written under m_, by the
  // reader only).
  std::string name_;
  std::size_t n_ = 0;
  std::size_t content_idx_ = 0;
  std::size_t bytes_read_ = 0;
  std::size_t stitches_ = 0;
  std::size_t queue_peak_ = 0;

  std::thread reader_;
};

constexpr std::size_t kNoErrorIdx = std::numeric_limits<std::size_t>::max();

/// Pipelined single-pass reader: commits parsed chunks in sequence order,
/// retains the edge records in file order, and scatters them into CSR slot
/// order at the end with an offsets[src]++ cursor walk, so each source's
/// slots hold its edges in file order.
// sc-lint: streaming-path
CsrGraph read_csr_pipelined(const std::string& path, StreamingReadStats* stats,
                            IngestSink* sink, ThreadPool& pool) {
  // One-shot open/size probe before the pipeline spins up; all streaming
  // reads after this point happen on the reader thread (read_all).
  std::FILE* file = std::fopen(path.c_str(), "rb");  // sc-lint: allow(streaming-blocking-read)
  SC_CHECK(file != nullptr, "cannot open '" << path << "' for reading");
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> closer(file, &std::fclose);
  SC_CHECK(std::fseek(file, 0, SEEK_END) == 0, "cannot seek in '" << path << "'");
  const long size = std::ftell(file);
  SC_CHECK(size >= 0, "cannot determine size of '" << path << "'");
  SC_CHECK(std::fseek(file, 0, SEEK_SET) == 0, "cannot rewind '" << path << "'");
  const std::uint64_t file_size = static_cast<std::uint64_t>(size);
  std::size_t chunk_bytes = g_ingest_chunk_bytes.load(std::memory_order_relaxed);
  if (chunk_bytes == 0) chunk_bytes = kIoBufferBytes;

  // Declared after `closer` so the pipeline (and its reader thread) is torn
  // down before the FILE* goes away.
  IngestPipeline pipe(path, file, file_size, chunk_bytes, pool.size());

  std::string name;
  std::size_t n = 0;
  bool allocated = false;
  std::vector<float> ipt, selectivity;
  std::vector<std::uint64_t> offsets;
  bool m_known = false;
  std::size_t m = 0;
  std::size_t end_idx = 0;  // content index of the 'end' line, once m is known
  std::vector<CsrEdgeRec> recs;  // file-order transient (16 bytes/edge)
  std::size_t nodes_done = 0;
  std::size_t edges_done = 0;
  bool end_seen = false;
  std::uint64_t batch_seq = 0;

  const auto commit = [&] {
    for (std::size_t seq = 0; !end_seen; ++seq) {
      IngestChunk* c = pipe.next_parsed(seq);
      if (c == nullptr) break;
      if (!allocated) {
        n = pipe.num_nodes();
        name = pipe.name();
        ipt.resize(n);
        selectivity.resize(n);
        offsets.assign(n + 1, 0);
        allocated = true;
      }
      const std::size_t header_idx = n + 2;
      const std::size_t lo = c->first_idx;
      const std::size_t hi = lo + c->lines.size() - 1;
      const std::size_t err_idx = c->error != nullptr ? c->error_idx : kNoErrorIdx;
      if (!c->node_ipt.empty()) {
        std::copy(c->node_ipt.begin(), c->node_ipt.end(),
                  ipt.begin() + static_cast<std::ptrdiff_t>(lo - 2));
        std::copy(c->node_sel.begin(), c->node_sel.end(),
                  selectivity.begin() + static_cast<std::ptrdiff_t>(lo - 2));
        nodes_done += c->node_ipt.size();
      }
      if (err_idx < header_idx) std::rethrow_exception(c->error);
      if (!m_known && lo <= header_idx && header_idx <= hi) {
        m = parse_count_line(c->lines[header_idx - lo], "edges", pipe.file_size(), 4);
        m_known = true;
        end_idx = header_idx + m + 1;
        recs.reserve(m);
      }
      if (m_known) {
        // The parser read every line past the header as an edge record; keep
        // only those before the 'end' line (it did not know m yet).
        const std::size_t first_edge = std::max(lo, header_idx + 1);
        const std::size_t in_range = end_idx > first_edge ? end_idx - first_edge : 0;
        const std::size_t take = std::min(c->edges.size(), in_range);
        if (take > 0) {
          const std::size_t base = recs.size();
          recs.insert(recs.end(), c->edges.begin(),
                      c->edges.begin() + static_cast<std::ptrdiff_t>(take));
          for (std::size_t i = base; i < base + take; ++i) {
            ++offsets[static_cast<std::size_t>(recs[i].src) + 1];
          }
          edges_done += take;
          if (sink != nullptr) {
            sink->on_edge_batch(batch_seq++,
                                std::span<const CsrEdgeRec>(recs.data() + base, take));
          }
        }
        if (err_idx < end_idx) std::rethrow_exception(c->error);
        if (lo <= end_idx && end_idx <= hi) {
          SC_CHECK(std::strcmp(c->lines[end_idx - lo], "end") == 0,
                   "expected 'end' terminating graph in '" << path << "'");
          end_seen = true;  // ReadsFirstGraphOnly: ignore everything after
        }
      }
      pipe.recycle(c);
    }
  };
  // Index 0, which parallel_for runs on this thread, commits: the CSR
  // arrays and the sink's batches are allocated where they are used. The
  // other indices are parse loops, one per pool worker. The committer stops
  // the pipeline on every exit, which ends the parse loops.
  pool.parallel_for(pool.size() + 1, [&](std::size_t i) {
    if (i > 0) {
      pipe.parse_loop();
      return;
    }
    try {
      commit();
    } catch (...) {
      pipe.finish();
      throw;
    }
    pipe.finish();
  });
  if (!end_seen) {
    pipe.rethrow_reader_error();  // later file offsets than any parsed chunk
    if (!allocated) n = pipe.num_nodes();
    SC_CHECK(nodes_done == n,
             "unexpected EOF in node list: got " << nodes_done << " of " << n << " nodes");
    SC_CHECK(m_known, "unexpected EOF: expected 'edges' in '" << path << "'");
    SC_CHECK(edges_done == m,
             "unexpected EOF in edge list: got " << edges_done << " of " << m << " edges");
    SC_CHECK(end_seen, "expected 'end' terminating graph in '" << path << "'");
  }

  for (std::size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];

  // Scatter the file-order records into CSR slot order. Sources are split
  // into contiguous ranges balanced by edge count; each index claims slots
  // for its own sources only, so the offsets[src]++ cursor walk — and with
  // it the slot layout — is the same at any thread count.
  std::vector<NodeId> dst(m);
  std::vector<float> payload(m);
  std::vector<float> rate_factor(m);
  const std::size_t ranges = std::min<std::size_t>(pool.size(), 8);
  if (ranges <= 1 || m < (std::size_t{1} << 16)) {
    for (const CsrEdgeRec& r : recs) {
      const std::uint64_t slot = offsets[r.src]++;
      dst[slot] = r.dst;
      payload[slot] = r.payload;
      rate_factor[slot] = r.rate_factor;
    }
  } else {
    std::vector<std::size_t> range_begin(ranges + 1, n);
    range_begin[0] = 0;
    for (std::size_t r = 1; r < ranges; ++r) {
      const std::uint64_t want =
          static_cast<std::uint64_t>(m) * r / ranges;  // edge-count quantile
      std::size_t v = range_begin[r - 1];
      while (v < n && offsets[v] < want) ++v;
      range_begin[r] = v;
    }
    pool.parallel_for(ranges, [&](std::size_t r) {
      const std::size_t v_lo = range_begin[r];
      const std::size_t v_hi = range_begin[r + 1];
      for (const CsrEdgeRec& rec : recs) {
        const std::size_t src = rec.src;
        if (src < v_lo || src >= v_hi) continue;
        const std::uint64_t slot = offsets[src]++;
        dst[slot] = rec.dst;
        payload[slot] = rec.payload;
        rate_factor[slot] = rec.rate_factor;
      }
    });
  }
  // offsets[v] now points one past v's range; shift back down.
  for (std::size_t v = n; v > 0; --v) offsets[v] = offsets[v - 1];
  offsets[0] = 0;

  if (stats != nullptr) {
    stats->bytes_read = pipe.bytes_read();
    stats->buffer_bytes = chunk_bytes;
    stats->chunks = pipe.chunk_count();
    stats->stitches = pipe.stitches();
    stats->queue_peak = pipe.queue_peak();
  }
  return CsrGraph(std::move(name), std::move(ipt), std::move(selectivity),
                  std::move(offsets), std::move(dst), std::move(payload),
                  std::move(rate_factor));
}

}  // namespace

void set_ingest_chunk_bytes(std::size_t bytes) {
  g_ingest_chunk_bytes.store(bytes, std::memory_order_relaxed);
}

ThreadPool* set_ingest_pool(ThreadPool* pool) {
  return g_ingest_pool.exchange(pool, std::memory_order_relaxed);
}

// sc-lint: streaming-path
CsrGraph read_csr(const std::string& path, StreamingReadStats* stats, IngestSink* sink) {
  if (stats != nullptr) *stats = StreamingReadStats{};
  ThreadPool* override_pool = g_ingest_pool.load(std::memory_order_relaxed);
  return read_csr_pipelined(path, stats, sink,
                            override_pool != nullptr ? *override_pool
                                                     : ThreadPool::global());
}

// sc-lint: streaming-path
CsrLoad compute_csr_load(const CsrGraph& g) {
  const std::size_t n = g.num_nodes();
  const std::size_t m = g.num_edges();
  CsrLoad load;
  load.node_cpu.assign(n, 0.0);
  load.edge_traffic.assign(m, 0.0);

  std::vector<std::uint32_t> in_deg(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    for (const NodeId t : g.out(v)) ++in_deg[t];
  }

  // Kahn propagation at unit source rate: same recurrences as
  // compute_load_profile, evaluated over the compressed layout.
  std::vector<double> rate(n, 0.0);
  std::vector<NodeId> queue;
  queue.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    if (in_deg[v] == 0) {
      rate[v] = 1.0;
      queue.push_back(v);
    }
  }
  std::size_t head = 0;
  while (head < queue.size()) {
    const NodeId v = queue[head++];
    const double out_rate = rate[v] * static_cast<double>(g.selectivity(v));
    const std::uint64_t begin = g.out_offset(v);
    const std::span<const NodeId> targets = g.out(v);
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const std::uint64_t slot = begin + i;
      const double edge_rate = out_rate * static_cast<double>(g.rate_factor(slot));
      load.edge_traffic[slot] = static_cast<double>(g.payload(slot)) * edge_rate;
      rate[targets[i]] += edge_rate;
      if (--in_deg[targets[i]] == 0) queue.push_back(targets[i]);
    }
  }
  SC_CHECK(queue.size() == n,
           "stream graph '" << g.name() << "' contains a directed cycle");

  for (NodeId v = 0; v < n; ++v) {
    load.node_cpu[v] = static_cast<double>(g.ipt(v)) * rate[v];
    load.total_cpu += load.node_cpu[v];
  }
  for (const double t : load.edge_traffic) load.total_traffic += t;
  // Rate amplification (broadcast forks compounding over deep graphs) can
  // overflow the propagation; a NaN load silently corrupts every consumer.
  SC_CHECK(std::isfinite(load.total_cpu) && std::isfinite(load.total_traffic),
           "load propagation overflowed on '" << g.name()
                                              << "': non-finite totals (rate amplification?)");
  return load;
}

}  // namespace sc::graph
