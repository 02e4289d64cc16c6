package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.SynthData
import repro.core.GridIndex
import repro.exp.Experiments

/** One distinct query of a workload. Everything but `solve` is computed once,
  * before the timed loop: the query representation and the `exact` answer.
  */
final case class Query(name: String, delta: Double, solve: () => Answer, exact: Adapter.Exact)

/** The state a workload's set-up leaves behind for its queries. */
final case class Ready(data: DataFrame, index: Option[GridIndex]) {
  def release(): Unit = data.unpersist(true)
}

sealed trait Workload {
  def name: String
  /** Objects in the timed data set. */
  def n: Long
  def mix: String
  /** Least untimed warm-up before the timed loop. */
  def warmupSeconds: Double
  /** Timed as `setup_s`: data generation and caching, plus any index. */
  def setup(spark: SparkSession, seed: Long): Ready
  /** Untimed: query representations, references and re-scorers. */
  def queries(ready: Ready): Seq[Query]
}

object Workload {
  val all: Seq[Workload] = Seq(DsAdhoc, GidsServed)
  def named(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload '$name'; known: ${all.map(_.name).mkString(", ")}"))

  /** Seed of the POI layout (cluster centres and attribute mixes). */
  val LayoutSeed = 7L

  /** `n` POIs sampled by `seed` from twice as many drawn by
    * `SynthData.pois` with a fixed layout. How much work a query does
    * depends strongly on where the clusters fall, so a layout drawn per seed
    * would make runs with different seeds differ by more than the program
    * does; sampling keeps the layout and still varies the objects.
    */
  private[perfbench] def sampledPois(spark: SparkSession, n: Long, seed: Long): DataFrame =
    cached(SynthData.pois(spark, 2 * n, LayoutSeed).sample(withReplacement = false, 0.5, seed))

  /** The `n` POIs that `SynthData.pois` draws with the fixed layout. */
  private[perfbench] def layoutPois(spark: SparkSession, n: Long): DataFrame =
    cached(SynthData.pois(spark, n, LayoutSeed))

  private def cached(d: DataFrame): DataFrame = {
    d.cache()
    d.count()
    d
  }

  private[perfbench] def query(name: String, exact: Adapter.Exact, delta: Double = 0.0)(
                               solve: => Answer): Query =
    Query(name, delta, () => solve, exact)
}

import Workload._

/** Ad-hoc queries through DS-Search: each one pays the whole per-query
  * pipeline (Spark preparation, accuracies, root scan, local recursion) and
  * no index helps. MaxRS queries use the same layers with a maximize
  * objective and a single-statistic aggregator, checked against OE.
  */
object DsAdhoc extends Workload {
  val name = "ds-adhoc"
  val n = 20_000L
  private val ks = Seq(1, 10)
  val mix = s"DSSearch.solveASRS {F1,F2} and DSSearch.solveMaxRS, SearchParams(); x {${ks.mkString("q,")}q}"
  /** Spark jobs dominate these queries; once each family has run, they are
    * as fast as they get.
    */
  val warmupSeconds = 0.0
  def setup(spark: SparkSession, seed: Long): Ready = Ready(sampledPois(spark, n, seed), None)
  def queries(ready: Ready): Seq[Query] = {
    val data = ready.data
    ks.flatMap { k =>
      val a = k * Experiments.unit()
      val f1 = Experiments.F1
      val t1 = Experiments.f1Target(data, a, a)
      val (f2, t2) = Experiments.f2AndTarget(data, a, a)
      Seq(
        query(s"F1/${k}q", Adapter.exactASRS(data, a, a, f1, t1))(Adapter.asrs(data, a, a, f1, t1)),
        query(s"F2/${k}q", Adapter.exactASRS(data, a, a, f2, t2))(Adapter.asrs(data, a, a, f2, t2)),
        query(s"MaxRS/${k}q", Adapter.exactMaxRS(data, a, a))(Adapter.maxrs(data, a, a)))
    }
  }
}

/** GI-DS served from one grid index built during set-up: queries use the
  * index bounds and per-cell local searches, one Spark job each.
  *
  * A served index holds one data set, so the objects are the fixed layout
  * and the seed draws only the query order. The search work of these
  * queries moves in steps of 20% to 30% between samples of the layout (one
  * object more or less near the best region), which a run cannot average
  * away.
  */
object GidsServed extends Workload {
  val name = "gids-served"
  val n = 50_000L
  val cells = 128
  private val ks = Seq(1, 4, 7, 10)
  private val deltas = Seq(0.0, 0.2)
  val mix = s"GIDS.solve on a ${cells}x$cells GridIndex; F1 x {${ks.mkString("q,")}q} x delta {${deltas.mkString(",")}}"
  /** The local searches run about a fifth slower for their first 15 to 20
    * seconds, until the JIT has compiled them for good.
    */
  val warmupSeconds = 20.0
  def setup(spark: SparkSession, seed: Long): Ready = {
    val data = layoutPois(spark, n)
    Ready(data, Some(Adapter.buildIndex(data, Experiments.F1, cells)))
  }
  def queries(ready: Ready): Seq[Query] = {
    val data = ready.data
    val index = ready.index.get
    val f1 = Experiments.F1
    ks.flatMap { k =>
      val a = k * Experiments.unit()
      val t = Experiments.f1Target(data, a, a)
      val exact = Adapter.exactASRS(data, a, a, f1, t)
      deltas.map(d => query(s"F1/${k}q/d$d", exact, d)(Adapter.gids(data, a, a, f1, t, index, d)))
    }
  }
}
