// DIMACS graph / coordinate I/O: round trips and malformed-input
// rejection.
#include <gtest/gtest.h>

#include <sstream>

#include "graph/generators.hpp"
#include "graph/io.hpp"

namespace sepsp {
namespace {

TEST(DimacsIo, GraphRoundTrip) {
  Rng rng(1);
  const GeneratedGraph gg = make_grid({6, 7}, WeightModel::uniform(1, 9), rng);
  std::stringstream ss;
  write_dimacs(ss, gg.graph);
  std::string error;
  const auto loaded = read_dimacs(ss, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->num_vertices(), gg.graph.num_vertices());
  EXPECT_EQ(loaded->num_edges(), gg.graph.num_edges());
  const auto a = gg.graph.edge_list();
  const auto b = loaded->edge_list();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].from, b[i].from);
    EXPECT_EQ(a[i].to, b[i].to);
    EXPECT_NEAR(a[i].weight, b[i].weight, 1e-9);
  }
}

TEST(DimacsIo, NegativeWeightsSurvive) {
  GraphBuilder b(3);
  b.add_edge(0, 1, -2.5);
  b.add_edge(1, 2, 4.25);
  const Digraph g = std::move(b).build();
  std::stringstream ss;
  write_dimacs(ss, g);
  const auto loaded = read_dimacs(ss);
  ASSERT_TRUE(loaded.has_value());
  double w = 0;
  EXPECT_TRUE(loaded->find_arc(0, 1, &w));
  EXPECT_DOUBLE_EQ(w, -2.5);
}

TEST(DimacsIo, ParsesHandWrittenFile) {
  std::stringstream ss(
      "c a comment\n"
      "\n"
      "p sp 3 2\n"
      "a 1 2 5\n"
      "c mid comment\n"
      "a 2 3 7.5\n");
  const auto g = read_dimacs(ss);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->num_vertices(), 3u);
  double w = 0;
  EXPECT_TRUE(g->find_arc(1, 2, &w));
  EXPECT_DOUBLE_EQ(w, 7.5);
}

TEST(DimacsIo, RejectsMalformedInput) {
  std::string error;
  {
    std::stringstream ss("a 1 2 5\n");  // arc before problem line
    EXPECT_FALSE(read_dimacs(ss, &error).has_value());
    EXPECT_NE(error.find("problem"), std::string::npos);
  }
  {
    std::stringstream ss("p sp 2 1\na 1 5 3\n");  // vertex out of range
    EXPECT_FALSE(read_dimacs(ss, &error).has_value());
  }
  {
    std::stringstream ss("p sp 2 2\na 1 2 3\n");  // missing edge
    EXPECT_FALSE(read_dimacs(ss, &error).has_value());
    EXPECT_NE(error.find("mismatch"), std::string::npos);
  }
  {
    std::stringstream ss("p sp 2 1\nz nonsense\n");  // unknown tag
    EXPECT_FALSE(read_dimacs(ss, &error).has_value());
  }
  {
    std::stringstream ss("p sp 2 0\np sp 2 0\n");  // duplicate header
    EXPECT_FALSE(read_dimacs(ss, &error).has_value());
  }
  {
    // 2^32 vertices: one more than a Vertex can index, so arc id 2^32+1
    // would wrap onto vertex 0.
    std::stringstream ss("p sp 4294967296 1\na 4294967297 1 1\n");
    EXPECT_FALSE(read_dimacs(ss, &error).has_value());
    EXPECT_NE(error.find("Vertex"), std::string::npos);
  }
  {
    std::stringstream ss("p sp 2 1\na 1 2 3.5.6\n");  // trailing ".6"
    EXPECT_FALSE(read_dimacs(ss, &error).has_value());
    EXPECT_NE(error.find("bad arc"), std::string::npos);
  }
  {
    std::stringstream ss("p sp 2 1 7\na 1 2 3\n");  // trailing "7"
    EXPECT_FALSE(read_dimacs(ss, &error).has_value());
    EXPECT_NE(error.find("bad problem"), std::string::npos);
  }
}

TEST(DimacsIo, CoordinateRoundTrip) {
  Rng rng(2);
  const GeneratedGraph gg =
      make_triangulated_grid(4, 5, WeightModel::unit(), rng);
  std::stringstream ss;
  write_dimacs_coords(ss, gg.coords);
  const auto loaded = read_dimacs_coords(ss, gg.coords.size());
  ASSERT_TRUE(loaded.has_value());
  for (std::size_t i = 0; i < gg.coords.size(); ++i) {
    EXPECT_NEAR((*loaded)[i][0], gg.coords[i][0], 1e-9);
    EXPECT_NEAR((*loaded)[i][1], gg.coords[i][1], 1e-9);
  }
}

TEST(DimacsIo, CoordsRejectBadIds) {
  std::stringstream ss("v 9 1.0 2.0\n");
  EXPECT_FALSE(read_dimacs_coords(ss, 3).has_value());
  // Trailing tokens: "4.5.5" used to read as 4.5 then 0.5.
  std::stringstream trailing("v 2 4.5.5 6\n");
  EXPECT_FALSE(read_dimacs_coords(trailing, 3).has_value());
}

}  // namespace
}  // namespace sepsp
