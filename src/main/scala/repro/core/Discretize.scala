package repro.core

/** Function Discretize (§4.3): lay an `ncol×nrow` grid over a space and
  * produce, per cell, the raw statistics of its fully-covering (clean
  * contribution) and partially-covering (dirty bound) rectangle sets. Runs
  * on the driver over the rectangles `idxs` of a collected [[LocalRects]],
  * visiting every cell each rectangle overlaps.
  *
  * Cells covered by no rectangle are absent from the output: they are clean
  * and hold the empty representation ([[CellStats.empty]]).
  */
object Discretize {

  def local(lr: LocalRects, idxs: Array[Int], grid: Grid, spec: CompositeAggregator): Array[CellRaw] = {
    val cells = grid.cells
    val (distSlot, numSlot) = LocalRects.slots(spec)
    val nPartial = new Array[Long](cells)
    val touched  = new Array[Boolean](cells)

    // Per-aggregator accumulators, indexed [aggPos][cell(*dim)].
    val distFull = spec.aggs.map { case d: DistAgg => new Array[Long](cells * d.dim); case _ => null }
    val distPart = spec.aggs.map { case d: DistAgg => new Array[Long](cells * d.dim); case _ => null }
    val fCnt = spec.aggs.map { case _: AvgAgg => new Array[Long](cells); case _ => null }
    val fSum = spec.aggs.map { a => if (a.isInstanceOf[AvgAgg] || a.isInstanceOf[SumAgg]) new Array[Double](cells) else null }
    val pCnt = spec.aggs.map { case _: AvgAgg => new Array[Long](cells); case _ => null }
    val pMin = spec.aggs.map { case _: AvgAgg => Array.fill(cells)(Double.NaN); case _ => null }
    val pMax = spec.aggs.map { case _: AvgAgg => Array.fill(cells)(Double.NaN); case _ => null }
    val pPos = spec.aggs.map { case _: SumAgg => new Array[Double](cells); case _ => null }
    val pNeg = spec.aggs.map { case _: SumAgg => new Array[Double](cells); case _ => null }

    idxs.foreach { r =>
      val (ciLo, ciHi) = grid.colRange(lr.xlo(r), lr.xhi(r))
      val (cjLo, cjHi) = grid.rowRange(lr.ylo(r), lr.yhi(r))
      var cj = cjLo
      while (cj <= cjHi) {
        var ci = ciLo
        while (ci <= ciHi) {
          val cell = grid.flat(ci, cj)
          touched(cell) = true
          val cx0 = grid.space.x0 + ci * grid.cw
          val cy0 = grid.space.y0 + cj * grid.ch
          val isFull = lr.xlo(r) <= cx0 && cx0 + grid.cw <= lr.xhi(r) &&
                       lr.ylo(r) <= cy0 && cy0 + grid.ch <= lr.yhi(r)
          if (!isFull) nPartial(cell) += 1
          var i = 0
          while (i < spec.aggs.size) {
            spec.aggs(i) match {
              case d: DistAgg =>
                val j = lr.distIdx(distSlot(i))(r)
                if (j >= 0) {
                  if (isFull) distFull(i)(cell * d.dim + j) += 1
                  else distPart(i)(cell * d.dim + j) += 1
                }
              case _: AvgAgg =>
                val m = numSlot(i)
                if (lr.numSel(m)(r)) {
                  val v = lr.numVal(m)(r)
                  if (isFull) { fCnt(i)(cell) += 1; fSum(i)(cell) += v }
                  else {
                    pCnt(i)(cell) += 1
                    if (pMin(i)(cell).isNaN || v < pMin(i)(cell)) pMin(i)(cell) = v
                    if (pMax(i)(cell).isNaN || v > pMax(i)(cell)) pMax(i)(cell) = v
                  }
                }
              case _: SumAgg =>
                val m = numSlot(i)
                if (lr.numSel(m)(r)) {
                  val v = lr.numVal(m)(r)
                  if (isFull) fSum(i)(cell) += v
                  else if (v > 0) pPos(i)(cell) += v
                  else if (v < 0) pNeg(i)(cell) += v
                }
            }
            i += 1
          }
          ci += 1
        }
        cj += 1
      }
    }

    val out = Array.newBuilder[CellRaw]
    var cell = 0
    while (cell < cells) {
      if (touched(cell)) {
        val stats: Array[AggStat] = spec.aggs.zipWithIndex.map {
          case (d: DistAgg, i) =>
            DistStat(Array.tabulate(d.dim)(j => distFull(i)(cell * d.dim + j)),
                     Array.tabulate(d.dim)(j => distPart(i)(cell * d.dim + j)))
          case (_: AvgAgg, i) =>
            AvgStat(fCnt(i)(cell), fSum(i)(cell), pCnt(i)(cell), pMin(i)(cell), pMax(i)(cell))
          case (_: SumAgg, i) =>
            SumStat(fSum(i)(cell), pPos(i)(cell), pNeg(i)(cell))
        }.toArray
        out += CellRaw(cell % grid.ncol, cell / grid.ncol, nPartial(cell), stats)
      }
      cell += 1
    }
    out.result()
  }
}
