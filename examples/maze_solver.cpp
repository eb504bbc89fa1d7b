// Maze solving with the optimistic parallel IDA* extension (paper
// conclusion: "extending this lock and atomic instruction free
// optimistic parallelization technique to other graph traversal
// algorithms such as IDA*, A*").
//
// Generates a random maze on a grid, solves it with (a) plain parallel
// BFS, (b) heuristic-free iterative deepening, and (c) manhattan-guided
// optimistic IDA*, and shows the path plus the work saved by the
// heuristic.
//
//   ./maze_solver [rows] [cols] [wall_pct] [threads]
#include <cstdlib>
#include <iostream>
#include <string>

#include "apps/goal_search.hpp"
#include "checked_args.hpp"
#include "optibfs.hpp"

namespace {

using namespace optibfs;

struct Maze {
  vid_t rows, cols;
  std::vector<bool> wall;
  CsrGraph graph;

  vid_t id(vid_t r, vid_t c) const { return r * cols + c; }
};

Maze build_maze(vid_t rows, vid_t cols, int wall_pct, std::uint64_t seed) {
  Maze maze{rows, cols, std::vector<bool>(rows * cols, false), {}};
  Xoshiro256 rng(seed);
  for (vid_t v = 0; v < rows * cols; ++v) {
    maze.wall[v] = rng.next_below(100) < static_cast<std::uint64_t>(wall_pct);
  }
  maze.wall[maze.id(0, 0)] = false;
  maze.wall[maze.id(rows - 1, cols - 1)] = false;

  EdgeList edges(rows * cols);
  auto open = [&](vid_t r, vid_t c) { return !maze.wall[maze.id(r, c)]; };
  for (vid_t r = 0; r < rows; ++r) {
    for (vid_t c = 0; c < cols; ++c) {
      if (!open(r, c)) continue;
      if (c + 1 < cols && open(r, c + 1)) {
        edges.add_unchecked(maze.id(r, c), maze.id(r, c + 1));
        edges.add_unchecked(maze.id(r, c + 1), maze.id(r, c));
      }
      if (r + 1 < rows && open(r + 1, c)) {
        edges.add_unchecked(maze.id(r, c), maze.id(r + 1, c));
        edges.add_unchecked(maze.id(r + 1, c), maze.id(r, c));
      }
    }
  }
  maze.graph = CsrGraph::from_edges(edges);
  return maze;
}

void draw(const Maze& maze, const std::vector<vid_t>& path) {
  if (maze.rows > 30 || maze.cols > 70) return;  // keep terminals sane
  std::vector<char> canvas(maze.rows * maze.cols, '.');
  for (vid_t v = 0; v < maze.rows * maze.cols; ++v) {
    if (maze.wall[v]) canvas[v] = '#';
  }
  for (const vid_t v : path) canvas[v] = '*';
  if (!path.empty()) {
    canvas[path.front()] = 'S';
    canvas[path.back()] = 'G';
  }
  for (vid_t r = 0; r < maze.rows; ++r) {
    std::cout << "  ";
    for (vid_t c = 0; c < maze.cols; ++c) {
      std::cout << canvas[maze.id(r, c)];
    }
    std::cout << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  using optibfs::examples::positional;
  const vid_t rows = positional<vid_t>(argc, argv, 1, "rows", 25, 1);
  const vid_t cols = positional<vid_t>(argc, argv, 2, "cols", 60, 1);
  const int wall_pct = positional(argc, argv, 3, "wall_pct", 25, 0);
  const int threads = positional(argc, argv, 4, "threads", 4, 1);

  std::cout << "Maze " << rows << "x" << cols << " (" << wall_pct
            << "% walls)\n\n";
  Maze maze = build_maze(rows, cols, wall_pct, /*seed=*/99);
  const vid_t source = maze.id(0, 0);
  const vid_t goal = maze.id(rows - 1, cols - 1);

  BFSOptions options;
  options.num_threads = threads;

  // Reference: plain parallel BFS distance.
  auto bfs = make_bfs("BFS_CL", maze.graph, options);
  const BFSResult full = bfs->run(source);

  const auto guided = ida_star(maze.graph, source, goal,
                               manhattan_heuristic(rows, cols, goal),
                               options);
  const auto blind = ida_star(maze.graph, source, goal, options);

  if (!guided.found) {
    std::cout << "No path exists (walls sealed the goal off); BFS agrees: "
              << (full.level[goal] == kUnvisited ? "yes" : "NO — BUG")
              << '\n';
    return full.level[goal] == kUnvisited ? 0 : 1;
  }

  std::cout << "shortest path: " << guided.cost << " steps (BFS says "
            << full.level[goal] << " — "
            << (guided.cost == full.level[goal] ? "agree" : "DISAGREE")
            << ")\n";
  std::cout << "expansions: guided IDA* " << guided.expansions << " in "
            << guided.iterations << " iteration(s), blind deepening "
            << blind.expansions << " in " << blind.iterations
            << " iteration(s)\n\n";
  draw(maze, guided.path);
  return guided.cost == full.level[goal] ? 0 : 1;
}
