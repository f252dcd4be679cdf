#include "graph/io.hpp"

#include <cstdint>
#include <fstream>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/error.hpp"

namespace sc::graph {

namespace {

// Reads the next non-empty, non-comment line; returns false at EOF. Named
// distinctively so sc_analyze's name-resolved call graph never wires a
// streaming-path function to this istream helper.
bool next_text_line(std::istream& is, std::string& line) {
  while (std::getline(is, line)) {
    const auto pos = line.find_first_not_of(" \t\r");
    if (pos == std::string::npos) continue;
    if (line[pos] == '#') continue;
    return true;
  }
  return false;
}

// Asserts that `ls` holds nothing but whitespace (CRLF '\r' included); the
// offending token is named in the error so corrupt records are debuggable.
void check_no_trailing_garbage(std::istringstream& ls, const char* where,
                               const std::string& line) {
  std::string extra;
  if (ls >> extra) {
    SC_CHECK(false, "trailing garbage '" << extra << "' after " << where << ": '" << line
                                         << "'");
  }
}

// Strict unsigned parse of a whole token: every character must be a digit
// (istream's operator>> silently accepts '-1' for unsigned types by wrapping,
// which is exactly the hostile-input hole this closes).
std::uint64_t parse_unsigned_token(const std::string& token, const char* what) {
  SC_CHECK(!token.empty() && token[0] != '-',
           "negative or empty " << what << " '" << token << "'");
  std::uint64_t value = 0;
  for (const char c : token) {
    SC_CHECK(c >= '0' && c <= '9', "malformed " << what << " '" << token << "'");
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    SC_CHECK(value <= (std::numeric_limits<std::uint64_t>::max() - digit) / 10,
             what << " '" << token << "' overflows");
    value = value * 10 + digit;
  }
  return value;
}

// Parses a "<keyword> <count>" header line. The cap is enforced here, BEFORE
// any caller allocates storage proportional to the count: a corrupt or
// hostile header must fail loudly instead of triggering a near-OOM resize.
std::size_t parse_count_header(const std::string& line, const char* keyword) {
  std::istringstream ls(line);
  std::string token, value;
  ls >> token >> value;
  SC_CHECK(token == keyword && !value.empty(),
           "expected '" << keyword << " <count>', got '" << line << "'");
  const std::uint64_t count = parse_unsigned_token(value, keyword);
  SC_CHECK(count <= kMaxIngestCount, keyword << " count " << count
                                             << " exceeds the ingest cap "
                                             << kMaxIngestCount);
  check_no_trailing_garbage(ls, keyword, line);
  return static_cast<std::size_t>(count);
}

}  // namespace

void write_graph(std::ostream& os, const StreamGraph& g) {
  os << "streamgraph " << (g.name().empty() ? "unnamed" : g.name()) << '\n';
  os << std::setprecision(17);
  os << "nodes " << g.num_nodes() << '\n';
  for (const Operator& op : g.ops()) {
    os << op.ipt << ' ' << op.selectivity << '\n';
  }
  os << "edges " << g.num_edges() << '\n';
  for (const Channel& c : g.edges()) {
    os << c.src << ' ' << c.dst << ' ' << c.payload << ' ' << c.rate_factor << '\n';
  }
  os << "end\n";
}

StreamGraph read_graph(std::istream& is) {
  std::string line, token, name;
  SC_CHECK(next_text_line(is, line), "unexpected EOF: expected 'streamgraph'");
  {
    std::istringstream ls(line);
    ls >> token >> name;
    SC_CHECK(token == "streamgraph", "expected 'streamgraph', got '" << token << "'");
    check_no_trailing_garbage(ls, "graph name", line);
  }
  GraphBuilder b(name);

  SC_CHECK(next_text_line(is, line), "unexpected EOF: expected 'nodes'");
  const std::size_t n = parse_count_header(line, "nodes");
  for (std::size_t i = 0; i < n; ++i) {
    SC_CHECK(next_text_line(is, line),
             "unexpected EOF in node list: got " << i << " of " << n << " nodes");
    std::istringstream ls(line);
    double ipt = 0, sel = 0;
    ls >> ipt >> sel;
    SC_CHECK(static_cast<bool>(ls), "malformed node line: '" << line << "'");
    check_no_trailing_garbage(ls, "node record", line);
    b.add_node(ipt, sel);
  }

  SC_CHECK(next_text_line(is, line), "unexpected EOF: expected 'edges'");
  const std::size_t m = parse_count_header(line, "edges");
  for (std::size_t i = 0; i < m; ++i) {
    SC_CHECK(next_text_line(is, line),
             "unexpected EOF in edge list: got " << i << " of " << m << " edges");
    std::istringstream ls(line);
    std::string src_tok, dst_tok;
    double payload = 0, rf = 0;
    ls >> src_tok >> dst_tok >> payload >> rf;
    SC_CHECK(static_cast<bool>(ls), "malformed edge line: '" << line << "'");
    check_no_trailing_garbage(ls, "edge record", line);
    const std::uint64_t src = parse_unsigned_token(src_tok, "edge source");
    const std::uint64_t dst = parse_unsigned_token(dst_tok, "edge target");
    SC_CHECK(src < n && dst < n,
             "edge endpoint out of range in line '" << line << "' (graph has " << n
                                                    << " nodes)");
    b.add_edge(checked_node_id(src), checked_node_id(dst), payload, rf);
  }

  SC_CHECK(next_text_line(is, line), "unexpected EOF: expected 'end'");
  {
    std::istringstream ls(line);
    ls >> token;
    SC_CHECK(token == "end", "expected 'end', got '" << line << "'");
    check_no_trailing_garbage(ls, "'end'", line);
  }
  return b.build();
}

void write_dot(std::ostream& os, const StreamGraph& g, const LoadProfile* profile,
               const std::vector<NodeId>* groups) {
  if (groups != nullptr) {
    SC_CHECK(groups->size() == g.num_nodes(), "group labels must cover every node");
  }
  if (profile != nullptr) {
    SC_CHECK(profile->node_cpu.size() == g.num_nodes(), "profile does not match graph");
  }
  static const char* kPalette[] = {"#a6cee3", "#b2df8a", "#fb9a99", "#fdbf6f",
                                   "#cab2d6", "#ffff99", "#1f78b4", "#33a02c",
                                   "#e31a1c", "#ff7f00"};
  constexpr std::size_t kPaletteSize = 10;

  os << "digraph \"" << (g.name().empty() ? "streamgraph" : g.name()) << "\" {\n";
  os << "  rankdir=LR;\n  node [shape=ellipse, style=filled];\n";
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    os << "  n" << v << " [label=\"" << v;
    if (profile != nullptr) {
      os << "\\ncpu=" << std::setprecision(3) << profile->node_cpu[v];
    }
    os << '"';
    if (groups != nullptr) {
      os << ", fillcolor=\"" << kPalette[(*groups)[v] % kPaletteSize] << '"';
    } else {
      os << ", fillcolor=white";
    }
    os << "];\n";
  }
  double max_traffic = 1e-12;
  if (profile != nullptr) {
    for (const double t : profile->edge_traffic) max_traffic = std::max(max_traffic, t);
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Channel& c = g.edge(e);
    os << "  n" << c.src << " -> n" << c.dst;
    if (profile != nullptr) {
      const double w = 0.5 + 4.0 * profile->edge_traffic[e] / max_traffic;
      os << " [penwidth=" << std::setprecision(3) << w;
      if (groups != nullptr && (*groups)[c.src] == (*groups)[c.dst]) {
        os << ", style=dashed";  // collapsed / intra-group edge
      }
      os << ']';
    }
    os << ";\n";
  }
  os << "}\n";
  SC_CHECK(os.good(), "DOT write failed");
}

void save_graphs(const std::string& path, const std::vector<StreamGraph>& graphs) {
  std::ofstream os(path);
  SC_CHECK(os.good(), "cannot open '" << path << "' for writing");
  os << "# streamcoarsen dataset: " << graphs.size() << " graphs\n";
  for (const StreamGraph& g : graphs) write_graph(os, g);
  // Flush before checking: a disk-full/permission error on buffered data
  // would otherwise only surface in the destructor, where it is swallowed.
  os.flush();
  SC_CHECK(os.good(), "write to '" << path << "' failed (disk full or I/O error?)");
}

std::vector<StreamGraph> load_graphs(const std::string& path) {
  std::ifstream is(path);
  SC_CHECK(is.good(), "cannot open '" << path << "' for reading");
  std::vector<StreamGraph> graphs;
  // Skip blanks/comments, then rewind to the start of the next graph block.
  for (;;) {
    std::streampos pos = is.tellg();
    std::string line;
    bool has_more = false;
    while (std::getline(is, line)) {
      const auto p = line.find_first_not_of(" \t\r");
      if (p == std::string::npos || line[p] == '#') {
        pos = is.tellg();
        continue;
      }
      has_more = true;
      break;
    }
    if (!has_more) break;
    is.clear();
    is.seekg(pos);
    graphs.push_back(read_graph(is));
  }
  return graphs;
}

}  // namespace sc::graph
