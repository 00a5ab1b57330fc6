#include "graph/io.hpp"

#include <istream>
#include <ostream>
#include <sstream>

namespace sepsp {

namespace {

void set_error(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

/// True when nothing but whitespace is left on the line.
bool at_end(std::istringstream& ls) {
  ls >> std::ws;
  return ls.eof();
}

}  // namespace

void write_dimacs(std::ostream& os, const Digraph& g) {
  os.precision(17);  // round-trippable doubles
  os << "c sepsp digraph\n";
  os << "p sp " << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    for (const Arc& a : g.out(u)) {
      os << "a " << (u + 1) << ' ' << (a.to + 1) << ' ' << a.weight << '\n';
    }
  }
}

std::optional<Digraph> read_dimacs(std::istream& is, std::string* error) {
  std::string line;
  std::optional<GraphBuilder> builder;
  std::size_t declared_edges = 0;
  std::size_t seen_edges = 0;
  std::size_t line_number = 0;
  while (std::getline(is, line)) {
    ++line_number;
    if (line.empty() || line[0] == 'c') continue;
    std::istringstream ls(line);
    char tag = 0;
    ls >> tag;
    if (tag == 'p') {
      std::string kind;
      std::size_t n = 0, m = 0;
      if (!(ls >> kind >> n >> m) || kind != "sp" || !at_end(ls)) {
        set_error(error, "bad problem line at " + std::to_string(line_number));
        return std::nullopt;
      }
      // Ids 1..n map to Vertex 0..n-1; a larger n would let an arc id
      // above the Vertex range pass the bounds check and wrap.
      if (n > kInvalidVertex) {
        set_error(error, "problem line at " + std::to_string(line_number) +
                             " declares " + std::to_string(n) +
                             " vertices, more than a Vertex can index");
        return std::nullopt;
      }
      if (builder.has_value()) {
        set_error(error, "duplicate problem line");
        return std::nullopt;
      }
      builder.emplace(n);
      declared_edges = m;
    } else if (tag == 'a') {
      if (!builder.has_value()) {
        set_error(error, "arc before problem line");
        return std::nullopt;
      }
      std::size_t from = 0, to = 0;
      double weight = 0;
      if (!(ls >> from >> to >> weight) || !at_end(ls) || from == 0 ||
          to == 0 || from > builder->num_vertices() ||
          to > builder->num_vertices()) {
        set_error(error, "bad arc at line " + std::to_string(line_number));
        return std::nullopt;
      }
      builder->add_edge(static_cast<Vertex>(from - 1),
                        static_cast<Vertex>(to - 1), weight);
      ++seen_edges;
    } else {
      set_error(error,
                "unknown line tag at line " + std::to_string(line_number));
      return std::nullopt;
    }
  }
  if (!builder.has_value()) {
    set_error(error, "missing problem line");
    return std::nullopt;
  }
  if (seen_edges != declared_edges) {
    set_error(error, "edge count mismatch: declared " +
                         std::to_string(declared_edges) + ", found " +
                         std::to_string(seen_edges));
    return std::nullopt;
  }
  return std::move(*builder).build(/*dedup_min=*/false);
}

void write_dimacs_coords(std::ostream& os,
                         const std::vector<std::array<double, 3>>& coords) {
  os.precision(17);  // round-trippable doubles
  os << "c sepsp coordinates\n";
  for (std::size_t i = 0; i < coords.size(); ++i) {
    os << "v " << (i + 1) << ' ' << coords[i][0] << ' ' << coords[i][1]
       << '\n';
  }
}

std::optional<std::vector<std::array<double, 3>>> read_dimacs_coords(
    std::istream& is, std::size_t num_vertices, std::string* error) {
  std::vector<std::array<double, 3>> coords(num_vertices, {0, 0, 0});
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(is, line)) {
    ++line_number;
    if (line.empty() || line[0] == 'c' || line[0] == 'p') continue;
    std::istringstream ls(line);
    char tag = 0;
    std::size_t id = 0;
    double x = 0, y = 0;
    ls >> tag;
    if (tag != 'v') {
      set_error(error,
                "unknown line tag at line " + std::to_string(line_number));
      return std::nullopt;
    }
    if (!(ls >> id >> x >> y) || !at_end(ls) || id == 0 ||
        id > num_vertices) {
      set_error(error, "bad vertex at line " + std::to_string(line_number));
      return std::nullopt;
    }
    coords[id - 1] = {x, y, 0};
  }
  return coords;
}

}  // namespace sepsp
