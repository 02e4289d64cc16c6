package perfbench

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.lit
import repro.core._

/** What one solver call returned, in the benchmark's own terms. */
final case class Answer(x: Double, y: Double, score: Double, truncated: Boolean,
                        counters: Map[String, Double])

/** The only place the benchmark calls a solver or the index, and the only
  * place it reads solver counters. It uses the public entry points that
  * later changes are expected to keep, and passes no `SearchParams` field
  * other than `delta`, so a new result or profile type is a change here
  * alone.
  */
object Adapter {

  def asrs(data: DataFrame, a: Double, b: Double, spec: CompositeAggregator,
           target: Array[Double]): Answer = {
    val r = DSSearch.solveASRS(data, a, b, spec, target)
    Answer(r.x, r.y, r.score, r.stats.truncated, searchCounters(r.stats))
  }

  def maxrs(data: DataFrame, a: Double, b: Double): Answer = {
    val r = DSSearch.solveMaxRS(data, a, b)
    Answer(r.x, r.y, r.score, r.stats.truncated, searchCounters(r.stats))
  }

  def gids(data: DataFrame, a: Double, b: Double, spec: CompositeAggregator,
           target: Array[Double], index: GridIndex, delta: Double): Answer = {
    val r = GIDS.solve(data, a, b, spec, target, index, SearchParams(delta = delta))
    Answer(r.x, r.y, r.score, r.stats.truncated,
           searchCounters(r.stats) ++ Map(
             "GIDS.cells_searched" -> r.cellsSearched.toDouble,
             "GIDS.ratio_searched" -> r.ratioSearched))
  }

  private def searchCounters(s: SearchStats): Map[String, Double] = Map(
    "DSSearch.spaces" -> s.spacesProcessed.toDouble,
    "DSSearch.cells" -> s.cellsEvaluated.toDouble,
    "DSSearch.spark_discretizations" -> s.sparkDiscretizations.toDouble)

  def buildIndex(data: DataFrame, spec: CompositeAggregator, cells: Int): GridIndex =
    GridIndex.build(data, spec, cells, cells)

  def indexBytes(index: GridIndex): Long = index.sizeBytes

  /** The exact score of a query from a reference solver, the reference's
    * own time in ms, and a brute-force scorer of any returned point.
    */
  final case class Exact(score: Double, ms: Double, rescore: (Double, Double) => Double)

  /** Base sweep for an ASRS query; points are re-scored with
    * `BruteForce.evalPoint` over the same rectangles.
    */
  def exactASRS(data: DataFrame, a: Double, b: Double, spec: CompositeAggregator,
                target: Array[Double]): Exact = {
    val t0 = System.nanoTime()
    val lr = LocalRects.collect(Rects.build(data, a, b, spec), spec)
    val score = SweepBase.solve(lr, spec, MinDistance(spec, target)).score
    Exact(score, (System.nanoTime() - t0) / 1e6,
          (x, y) => spec.distance(BruteForce.evalPoint(lr, spec, x, y), target))
  }

  /** OE sweep for a MaxRS query, re-scored the same way. */
  def exactMaxRS(data: DataFrame, a: Double, b: Double): Exact = {
    val t0 = System.nanoTime()
    val spec = CompositeAggregator.uniform(SumAgg("__one"))
    val lr = LocalRects.collect(Rects.build(data.withColumn("__one", lit(1.0)), a, b, spec), spec)
    val count = MaxRSOE.solve(lr).count.toDouble
    Exact(count, (System.nanoTime() - t0) / 1e6, (x, y) => BruteForce.evalPoint(lr, spec, x, y)(0))
  }
}
