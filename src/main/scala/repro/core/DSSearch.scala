package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.lit
import scala.collection.mutable

/** Knobs of Algorithm 1. `ncol×nrow` is the discretization grid (paper §7.2
  * finds 30×30 best). `delta` is the (1+δ) approximation slack (§6, 0 =
  * exact); `maxSpaces` is a runaway safeguard: when it fires the search stops
  * and reports [[SearchStats.truncated]].
  */
final case class SearchParams(
    ncol: Int = 30, nrow: Int = 30,
    delta: Double = 0.0,
    maxSpaces: Int = 2_000_000)

final class SearchStats {
  /** Always 0: every space is discretized on the driver (DESIGN.md §2). Kept
    * so callers that report it keep compiling.
    */
  var sparkDiscretizations = 0
  var localDiscretizations = 0
  var spacesProcessed = 0
  var cellsEvaluated = 0L
  var indexCellsSearched = 0 // grid-index cells popped (GI-DS roots)
  var truncated = false // maxSpaces safeguard fired (never in a healthy run)

  override def toString =
    s"spaces=$spacesProcessed local=$localDiscretizations cells=$cellsEvaluated " +
    s"indexCells=$indexCellsSearched truncated=$truncated"
}

/** Mutable incumbent and statistics of one query's search. */
final class SearchState(val objective: Objective, val delta: Double) {
  var bestScore: Double = objective.worst
  var bestX: Double = Double.NaN
  var bestY: Double = Double.NaN
  val stats = new SearchStats

  /** Bounds must beat this to survive (d_opt/(1+δ) for distances, §6). */
  def threshold: Double = objective.threshold(bestScore, delta)

  def offer(score: Double, x: Double, y: Double): Unit =
    if (objective.better(score, bestScore)) { bestScore = score; bestX = x; bestY = y }
}

/** Algorithm 1, DS-Search: best-first loop over spaces kept in a heap,
  * discretize each popped space, harvest clean cells, prune dirty cells by
  * bound, split survivors (Function Split) unless the drop condition
  * (Def. 8) holds. Runs on the driver over collected rectangles.
  */
final class DSSearch(
    spec: CompositeAggregator,
    objective: Objective,
    params: SearchParams = SearchParams()) {
  import DSSearch.Entry

  private val entryOrd: Ordering[Entry] =
    if (objective.isMin) Ordering.by((e: Entry) => -e.bound) else Ordering.by((e: Entry) => e.bound)

  /** The one best-first loop, over the rectangles of `lr` and started from
    * `roots`, updating `state`. DS-Search starts from one root, its search
    * space; GI-DS (Algorithm 2) from the boundary strips and every grid-index
    * cell, so index cells and the sub-spaces split from them share one heap.
    */
  def search(state: SearchState, roots: Iterable[Entry], dX: Double, dY: Double,
             lr: LocalRects): Unit = {
    val heap = mutable.PriorityQueue.from(roots)(entryOrd)
    while (heap.nonEmpty && objective.better(heap.head.bound, state.threshold)) {
      if (state.stats.spacesProcessed >= params.maxSpaces) {
        state.stats.truncated = true
        heap.clear()
      } else {
        val e = heap.dequeue()
        state.stats.spacesProcessed += 1
        if (e.indexCell) state.stats.indexCellsSearched += 1
        if (e.space.width > 0 && e.space.height > 0) {
          val grid = Grid(e.space, params.ncol, params.nrow)
          state.stats.localDiscretizations += 1
          val here = filterIdxs(lr, e.idxs, e.space)
          val dirty = harvest(grid, Discretize.local(lr, here, grid, spec), state)
          val drop = 2 * grid.cw < dX && 2 * grid.ch < dY
          if (!drop && dirty.nonEmpty) {
            val children = SplitHeuristic.split(dirty, objective)
              .flatMap(SplitHeuristic.ensureProgress(_, e.space))
            children.foreach { c =>
              if (objective.better(c.bound, state.threshold))
                heap.enqueue(Entry(c.bound, c.mbr, here))
            }
          }
        }
      }
    }
  }

  /** Evaluate the discretized cells: clean cells refine the incumbent, dirty
    * cells surviving the bound check are returned for splitting. A cell no
    * rectangle touches is absent from `cells` and skipped: it scores the
    * empty representation, which the incumbent has held since the query
    * start, and `offer` keeps only strictly better scores.
    */
  private def harvest(grid: Grid, cells: Array[CellRaw],
                      state: SearchState): IndexedSeq[SplitHeuristic.DirtyCell] = {
    state.stats.cellsEvaluated += grid.cells
    val dirty = IndexedSeq.newBuilder[SplitHeuristic.DirtyCell]
    cells.foreach { raw =>
      val box = grid.cellBox(raw.ci, raw.cj)
      if (!raw.isDirty) {
        state.offer(objective.score(CellStats.exactVec(spec, raw.stats)), box.centerX, box.centerY)
      } else {
        val (lo, hi) = CellStats.boundVecs(spec, raw.stats)
        val b = objective.bound(lo, hi)
        if (objective.better(b, state.threshold))
          dirty += SplitHeuristic.DirtyCell(box, b)
      }
    }
    dirty.result()
  }

  private def filterIdxs(lr: LocalRects, idxs: Array[Int], space: Box): Array[Int] =
    idxs.filter(i => lr.xlo(i) < space.x1 && space.x0 < lr.xhi(i) &&
                     lr.ylo(i) < space.y1 && space.y0 < lr.yhi(i))
}

object DSSearch {

  /** Answer to an ASRS/MaxRS query: the candidate point (bottom-left corner
    * of the returned region) and its score, plus search statistics.
    */
  final case class Result(x: Double, y: Double, score: Double, stats: SearchStats) {
    def region(a: Double, b: Double): Box = Box(x, y, x + a, y + b)
  }

  /** End-to-end ASRS solve (Algorithm 1): reduce, compute accuracies, seed
    * the incumbent with the empty region (a point outside every rectangle —
    * the optimum may well be an object-free region), then search.
    */
  def solveASRS(objects: DataFrame, a: Double, b: Double, spec: CompositeAggregator,
                target: Array[Double], params: SearchParams = SearchParams()): Result =
    solve(objects, a, b, spec, MinDistance(spec, target), params)

  /** MaxRS solve (§7.5): count objective over a constant-1 sum aggregator. */
  def solveMaxRS(objects: DataFrame, a: Double, b: Double,
                 params: SearchParams = SearchParams()): Result = {
    val spec = CompositeAggregator.uniform(SumAgg("__one"))
    solve(objects.withColumn("__one", lit(1.0)), a, b, spec, MaxCount(), params)
  }

  /** A space waiting in the search heap: `bound` holds for every candidate
    * point of `space`, `idxs` index the rectangles that may overlap it, and
    * `indexCell` marks a GI-DS grid-index cell.
    */
  final case class Entry(bound: Double, space: Box, idxs: Array[Int], indexCell: Boolean = false)

  /** What a query starts from: its collected rectangles, their search space
    * and ΔX/ΔY, and a search state whose incumbent is the empty region.
    */
  private[core] final case class Start(lr: LocalRects, state: SearchState, space: Box,
                                       dX: Double, dY: Double)

  /** The query start shared by DS-Search and GI-DS. One Spark job builds and
    * collects the rectangles; everything after it runs on the driver.
    */
  private[core] def start(objects: DataFrame, a: Double, b: Double, spec: CompositeAggregator,
                          objective: Objective, delta: Double): Start = {
    val lr = LocalRects.collect(Rects.build(objects, a, b, spec), spec)
    val state = new SearchState(objective, delta)
    val space = Rects.searchSpace(lr)
    // Incumbent: the empty region, anchored strictly outside every rectangle.
    state.offer(emptyScore(spec, objective), space.x1 + a, space.y1 + b)
    val (dX, dY) = Accuracy.ofLocal(lr)
    Start(lr, state, space, dX, dY)
  }

  /** DS-Search from the shared start: seed the incumbent, then search the
    * whole search space from one root.
    */
  def solve(objects: DataFrame, a: Double, b: Double, spec: CompositeAggregator,
            objective: Objective, params: SearchParams = SearchParams()): Result = {
    val q = start(objects, a, b, spec, objective, params.delta)
    seedIncumbent(q.lr, spec, objective, q.state)
    new DSSearch(spec, objective, params).search(
      q.state, Seq(Entry(openBound(objective), q.space, Array.range(0, q.lr.n))), q.dX, q.dY, q.lr)
    Result(q.state.bestX, q.state.bestY, q.state.bestScore, q.state.stats)
  }

  /** The trivial bound of a space nothing is known about yet. */
  def openBound(objective: Objective): Double =
    if (objective.isMin) 0.0 else Double.PositiveInfinity

  def emptyScore(spec: CompositeAggregator, objective: Objective): Double =
    objective.score(CellStats.exactVec(spec, CellStats.empty(spec, 0, 0).stats))

  /** Pre-seed the incumbent by scoring a deterministic sample of achievable
    * candidate points (rectangle centers). Sound for any objective — each
    * offer is a real point's score — and vital for MaxCount, where the
    * search otherwise starts with best = 0 and no pruning leverage until
    * clean cells appear deep in the recursion.
    */
  private def seedIncumbent(lr: LocalRects, spec: CompositeAggregator,
                            objective: Objective, state: SearchState): Unit = {
    val k = math.max(16, math.min(512, (2e7 / lr.n).toInt))
    val step = math.max(1, lr.n / k)
    var i = 0
    while (i < lr.n) {
      val px = (lr.xlo(i) + lr.xhi(i)) / 2
      val py = (lr.ylo(i) + lr.yhi(i)) / 2
      state.offer(objective.score(BruteForce.evalPoint(lr, spec, px, py)), px, py)
      i += step
    }
  }
}
