package repro.core

import org.apache.spark.sql.Row

/** Raw per-aggregator statistics of one grid cell: what the fully-covering
  * rectangle set contributes exactly, plus what the partially-covering set
  * could add. Produced by [[Discretize.local]], consumed by the bound and
  * distance math of §4.3.
  */
sealed trait AggStat

/** f_D: per-domain-value counts of full / partial covers. */
final case class DistStat(full: Array[Long], part: Array[Long]) extends AggStat

/** f_A: count+sum over full covers; count and min/max (NaN when none) over
  * partial covers — enough for the convex-combination average bound.
  */
final case class AvgStat(fullCnt: Long, fullSum: Double,
                         partCnt: Long, partMin: Double, partMax: Double) extends AggStat

/** f_S: exact full-cover sum plus the positive/negative partial-cover mass. */
final case class SumStat(fullSum: Double, partPos: Double, partNeg: Double) extends AggStat

/** One discretized cell: indices, number of partially-covering rectangles
  * (dirty iff > 0), and the per-aggregator statistics.
  */
final case class CellRaw(ci: Int, cj: Int, nPartial: Long, stats: Array[AggStat]) {
  def isDirty: Boolean = nPartial > 0
}

object CellStats {

  /** Statistics of a cell covered by no rectangle at all (empty clean cell). */
  def empty(spec: CompositeAggregator, ci: Int, cj: Int): CellRaw =
    CellRaw(ci, cj, 0L, spec.aggs.map {
      case DistAgg(_, dom, _) => DistStat(Array.fill(dom.size)(0L), Array.fill(dom.size)(0L))
      case _: AvgAgg          => AvgStat(0L, 0.0, 0L, Double.NaN, Double.NaN)
      case _: SumAgg          => SumStat(0.0, 0.0, 0.0)
    }.toArray)

  /** Parse the columns produced by [[Agg.rawStatExprs]] out of a Row. */
  def parseRow(row: Row, spec: CompositeAggregator): Array[AggStat] =
    spec.aggs.zipWithIndex.map { case (a, i) =>
      def L(n: String): Long   = row.getAs[Long](n)
      def D(n: String): Double = row.getAs[Double](n)
      def DN(n: String): Double = { // nullable min/max
        val v = row.getAs[Any](n)
        if (v == null) Double.NaN else v.asInstanceOf[Double]
      }
      a match {
        case DistAgg(_, dom, _) =>
          DistStat(dom.indices.map(j => L(s"a${i}_f$j")).toArray,
                   dom.indices.map(j => L(s"a${i}_p$j")).toArray)
        case _: AvgAgg =>
          AvgStat(L(s"a${i}_fcnt"), D(s"a${i}_fsum"), L(s"a${i}_pcnt"),
                  DN(s"a${i}_pmin"), DN(s"a${i}_pmax"))
        case _: SumAgg =>
          SumStat(D(s"a${i}_fsum"), D(s"a${i}_ppos"), D(s"a${i}_pneg"))
      }
    }.toArray

  /** Exact representation of a clean cell (aggregates of the full-cover set;
    * avg(∅) := 0). Also valid as the "assume no partials materialize" vector.
    */
  def exactVec(spec: CompositeAggregator, stats: Array[AggStat]): Array[Double] = {
    val out = new Array[Double](spec.dim)
    var o = 0
    stats.foreach {
      case DistStat(full, _) =>
        full.foreach { c => out(o) = c.toDouble; o += 1 }
      case AvgStat(fc, fs, _, _, _) =>
        out(o) = if (fc > 0) fs / fc else 0.0; o += 1
      case SumStat(fs, _, _) =>
        out(o) = fs; o += 1
    }
    out
  }

  /** Bounding vectors `(v̲, v̄)` for the representation of any location in the
    * cell (§4.3; f_A/f_S bounds per DESIGN.md §3).
    */
  def boundVecs(spec: CompositeAggregator, stats: Array[AggStat]): (Array[Double], Array[Double]) = {
    val lo = new Array[Double](spec.dim)
    val hi = new Array[Double](spec.dim)
    var o = 0
    stats.foreach {
      case DistStat(full, part) =>
        var j = 0
        while (j < full.length) {
          lo(o) = full(j).toDouble; hi(o) = (full(j) + part(j)).toDouble; o += 1; j += 1
        }
      case AvgStat(fc, fs, pc, pmin, pmax) =>
        val avgF = if (fc > 0) fs / fc else 0.0
        if (pc == 0) { lo(o) = avgF; hi(o) = avgF }
        else if (fc > 0) { lo(o) = math.min(avgF, pmin); hi(o) = math.max(avgF, pmax) }
        else { lo(o) = math.min(0.0, pmin); hi(o) = math.max(0.0, pmax) }
        o += 1
      case SumStat(fs, ppos, pneg) =>
        lo(o) = fs + pneg; hi(o) = fs + ppos; o += 1
    }
    (lo, hi)
  }
}
