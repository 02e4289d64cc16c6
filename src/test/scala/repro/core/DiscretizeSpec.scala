package repro.core

import repro.SparkSpec
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{coalesce, col, lit, sum, when}
import scala.util.Random

/** Function Discretize: the driver-local discretizer equals a Spark SQL
  * groupBy reference, classification matches brute-force geometry,
  * clean-cell representations are exact, and dirty-cell bounds are sound.
  */
class DiscretizeSpec extends SparkSpec {

  /** Reference discretizer in Spark SQL: join each rectangle to every grid
    * cell whose interior it meets, classify full vs partial cover, and
    * aggregate per cell with [[Agg.rawStatExprs]].
    */
  private def sparkCells(rects: DataFrame, grid: Grid, spec: CompositeAggregator): Array[CellRaw] = {
    import spark.implicits._
    val cellsDf = (for (j <- 0 until grid.nrow; i <- 0 until grid.ncol) yield {
      val c = grid.cellBox(i, j)
      (i, j, c.x0, c.y0, c.x1, c.y1)
    }).toDF("ci", "cj", "cx0", "cy0", "cx1", "cy1")
    val full = col("xlo") <= col("cx0") && col("cx0") + grid.cw <= col("xhi") &&
               col("ylo") <= col("cy0") && col("cy0") + grid.ch <= col("yhi")
    val aggCols = coalesce(sum(when(!full, 1L)), lit(0L)).as("npartial") +:
      Agg.rawStatExprs(spec, full)
    rects.crossJoin(cellsDf)
      .where(col("xlo") < col("cx1") && col("xhi") > col("cx0") &&
             col("ylo") < col("cy1") && col("yhi") > col("cy0"))
      .groupBy(col("ci"), col("cj"))
      .agg(aggCols.head, aggCols.tail: _*)
      .collect()
      .map { row =>
        CellRaw(row.getAs[Int]("ci"), row.getAs[Int]("cj"),
                row.getAs[Long]("npartial"), CellStats.parseRow(row, spec))
      }
  }

  private def sortCells(cs: Array[CellRaw]) = cs.sortBy(c => (c.cj, c.ci))

  private def assertSameCells(a: Array[CellRaw], b: Array[CellRaw]): Unit = {
    assert(a.length == b.length, s"cell count ${a.length} vs ${b.length}")
    sortCells(a).zip(sortCells(b)).foreach { case (x, y) =>
      assert(x.ci == y.ci && x.cj == y.cj, s"cell ids (${x.ci},${x.cj}) vs (${y.ci},${y.cj})")
      assert(x.nPartial == y.nPartial, s"nPartial at (${x.ci},${x.cj})")
      x.stats.zip(y.stats).foreach {
        case (DistStat(f1, p1), DistStat(f2, p2)) =>
          assert(f1.sameElements(f2) && p1.sameElements(p2), s"dist stats at (${x.ci},${x.cj})")
        case (AvgStat(c1, s1, pc1, mn1, mx1), AvgStat(c2, s2, pc2, mn2, mx2)) =>
          assert(c1 == c2 && pc1 == pc2); assert(math.abs(s1 - s2) < 1e-9)
          assert((mn1.isNaN && mn2.isNaN) || math.abs(mn1 - mn2) < 1e-12)
          assert((mx1.isNaN && mx2.isNaN) || math.abs(mx1 - mx2) < 1e-12)
        case (SumStat(s1, p1, n1), SumStat(s2, p2, n2)) =>
          assert(math.abs(s1 - s2) < 1e-9 && math.abs(p1 - p2) < 1e-9 && math.abs(n1 - n2) < 1e-9)
        case other => fail(s"stat kind mismatch $other")
      }
    }
  }

  for (seed <- 1 to 6; specIdx <- Seq(0, 3, 4))
    test(s"spark and local discretization agree (seed $seed, spec $specIdx)") {
      val data = TestGen.df(spark, 35, seed).cache()
      val spec = TestGen.specs(specIdx)
      val rng = new Random(seed * 13)
      val a = (rng.nextInt(16) + 6) / 64.0; val b = (rng.nextInt(16) + 6) / 64.0
      val rects = Rects.build(data, a, b, spec).cache()
      val lr = LocalRects.collect(rects, spec)
      for (grid <- Seq(Grid(Box(-a, -b, 1, 1), 7, 5),
                       Grid(Box(0.25, 0.25, 0.75, 0.8), 6, 6))) {
        val viaSpark = sparkCells(rects, grid, spec)
        val viaLocal = Discretize.local(lr, Array.range(0, lr.n), grid, spec)
        assertSameCells(viaSpark, viaLocal)
      }
      rects.unpersist()
    }

  for (seed <- 1 to 10) test(s"clean cells are exact, dirty bounds sound (seed $seed)") {
    val rng = new Random(seed * 7 + 1)
    val data = TestGen.df(spark, 30, seed + 100).cache()
    val spec = TestGen.specs(3)
    val a = (rng.nextInt(16) + 6) / 64.0; val b = (rng.nextInt(16) + 6) / 64.0
    val lr = TestGen.localRects(data, a, b, spec)
    val grid = Grid(Box(-a, -b, 1, 1), 9, 9)
    val cells = Discretize.local(lr, Array.range(0, lr.n), grid, spec)
    val present = cells.map(c => (c.ci, c.cj) -> c).toMap

    for (i <- 0 until grid.ncol; j <- 0 until grid.nrow) {
      val box = grid.cellBox(i, j)
      val raw = present.getOrElse((i, j), CellStats.empty(spec, i, j))
      if (!raw.isDirty) {
        // every interior point has the clean representation
        val exact = CellStats.exactVec(spec, raw.stats)
        for (_ <- 1 to 3) {
          val px = box.x0 + (0.1 + 0.8 * rng.nextDouble()) * box.width
          val py = box.y0 + (0.1 + 0.8 * rng.nextDouble()) * box.height
          val v = BruteForce.evalPoint(lr, spec, px, py)
          exact.indices.foreach(k => assert(math.abs(exact(k) - v(k)) < 1e-9,
            s"clean cell ($i,$j) dim $k: ${exact(k)} vs ${v(k)}"))
        }
      } else {
        val (lo, hi) = CellStats.boundVecs(spec, raw.stats)
        for (_ <- 1 to 5) {
          val px = box.x0 + rng.nextDouble() * box.width
          val py = box.y0 + rng.nextDouble() * box.height
          val v = BruteForce.evalPoint(lr, spec, px, py)
          v.indices.foreach { k =>
            assert(lo(k) <= v(k) + 1e-9 && v(k) <= hi(k) + 1e-9,
              s"dirty cell ($i,$j) dim $k: ${v(k)} outside [${lo(k)}, ${hi(k)}]")
          }
        }
      }
    }
  }

  for (seed <- 11 to 16) test(s"dirty-cell lower bound never beats a real point (seed $seed)") {
    val rng = new Random(seed)
    val data = TestGen.df(spark, 25, seed).cache()
    val spec = TestGen.specs(5)
    val a = 10 / 64.0; val b = 8 / 64.0
    val target = TestGen.target(spark, data, spec, a, b, seed)
    val obj = MinDistance(spec, target)
    val lr = TestGen.localRects(data, a, b, spec)
    val grid = Grid(Box(-a, -b, 1, 1), 8, 8)
    val cells = Discretize.local(lr, Array.range(0, lr.n), grid, spec)
    cells.filter(_.isDirty).foreach { c =>
      val (lo, hi) = CellStats.boundVecs(spec, c.stats)
      val lb = obj.bound(lo, hi)
      val box = grid.cellBox(c.ci, c.cj)
      for (_ <- 1 to 8) {
        val px = box.x0 + rng.nextDouble() * box.width
        val py = box.y0 + rng.nextDouble() * box.height
        val d = obj.score(BruteForce.evalPoint(lr, spec, px, py))
        assert(lb <= d + 1e-9, s"lb $lb > dist $d in cell (${c.ci},${c.cj})")
      }
    }
  }

  test("cells absent from output are truly empty") {
    val data = TestGen.df(spark, 20, 3).cache()
    val spec = TestGen.specs(0)
    val lr = TestGen.localRects(data, 0.1, 0.1, spec)
    val grid = Grid(Box(-0.1, -0.1, 1, 1), 12, 12)
    val cells = Discretize.local(lr, Array.range(0, lr.n), grid, spec)
    val present = cells.map(c => (c.ci, c.cj)).toSet
    for (i <- 0 until 12; j <- 0 until 12 if !present((i, j))) {
      val box = grid.cellBox(i, j)
      val v = BruteForce.evalPoint(lr, spec, box.centerX, box.centerY)
      assert(v.forall(_ == 0.0), s"missing cell ($i,$j) is not empty")
    }
  }

  test("a rectangle spanning the whole grid fully covers every cell") {
    import spark.implicits._
    val data = Seq((0.5, 0.5, "A", 1.0, 1.0)).toDF("x", "y", "cat", "v", "w")
    val spec = TestGen.specs(0)
    val lr = TestGen.localRects(data, 10.0, 10.0, spec)
    val grid = Grid(Box(0.0, 0.0, 0.4, 0.4), 5, 5)
    val cells = Discretize.local(lr, Array.range(0, lr.n), grid, spec)
    assert(cells.length == 25)
    assert(cells.forall(!_.isDirty))
    assert(cells.forall(c => c.stats.head.asInstanceOf[DistStat].full(0) == 1L))
  }
}
