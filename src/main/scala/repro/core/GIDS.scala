package repro.core

import org.apache.spark.sql.DataFrame

/** Algorithm 2 (GI-DS) and its (1+δ)-approximate extension (§6).
  *
  * The grid index supplies a bound per index cell for all candidate regions
  * bottom-left-located in it (§5.3). GI-DS is DS-Search started from those
  * cells: every index cell enters DS-Search's one best-first heap as a root
  * with its bound, so index cells and the sub-spaces split from them are
  * popped in one order and share one incumbent until the heap's top bound
  * reaches `d_opt/(1+δ)` (δ = 0 ⇒ exact, Algorithm 2 line 5).
  *
  * Orchestration note (DESIGN.md §2): the index build is a distributed
  * dataflow; a query collects its rectangles once, as DS-Search does, and
  * buckets them by index cell so each cell's root holds only the rectangles
  * overlapping it. Each query still collects and buckets all n rectangles,
  * so GI-DS is not yet faster than plain DS-Search (ROADMAP item 4).
  */
object GIDS {

  final case class Result(x: Double, y: Double, score: Double,
                          cellsSearched: Int, totalCells: Int, stats: SearchStats) {
    def ratioSearched: Double = cellsSearched.toDouble / totalCells
    def region(a: Double, b: Double): Box = Box(x, y, x + a, y + b)
  }

  def solve(objects: DataFrame, a: Double, b: Double, spec: CompositeAggregator,
            target: Array[Double], index: GridIndex,
            params: SearchParams = SearchParams()): Result = {
    val objective = MinDistance(spec, target)
    // Unlike DS-Search, no incumbent seeding: the best-bounded index cells
    // are popped first and give a good incumbent at once. Seeding searched
    // the same cells and spaces and only added its own scoring time
    // (DESIGN.md §3).
    val q = DSSearch.start(objects, a, b, spec, objective, params.delta)
    val g = index.grid

    // Boundary strips: candidate corners left of / below the index space
    // (their regions still overlap objects; the index cells cannot bound
    // them), rooted with the trivial bound.
    val all = Array.range(0, q.lr.n)
    val open = DSSearch.openBound(objective)
    val strips = Seq(
      DSSearch.Entry(open, Box(g.space.x0 - a, g.space.y0 - b, g.space.x0, g.space.y1), all),
      DSSearch.Entry(open, Box(g.space.x0, g.space.y0 - b, g.space.x1, g.space.y0), all))

    // Bucket rectangles by the index cells they overlap (one pass).
    val buckets = Array.fill(g.cells)(Array.newBuilder[Int])
    var r = 0
    while (r < q.lr.n) {
      val (ciLo, ciHi) = g.colRange(q.lr.xlo(r), q.lr.xhi(r))
      val (cjLo, cjHi) = g.rowRange(q.lr.ylo(r), q.lr.yhi(r))
      for (cj <- cjLo to cjHi; ci <- ciLo to ciHi) buckets(g.flat(ci, cj)) += r
      r += 1
    }

    // Every index cell is a root with its Lemma-8 bound (lines 2-3).
    val cells = for (cj <- 0 until g.nrow; ci <- 0 until g.ncol) yield {
      val (lo, hi) = index.candidateBounds(ci, cj, a, b)
      DSSearch.Entry(objective.bound(lo, hi), g.cellBox(ci, cj),
                     buckets(g.flat(ci, cj)).result(), indexCell = true)
    }

    new DSSearch(spec, objective, params).search(q.state, strips ++ cells, q.dX, q.dY, q.lr)
    val s = q.state
    Result(s.bestX, s.bestY, s.bestScore, s.stats.indexCellsSearched, g.cells, s.stats)
  }
}
