package repro.core

/** GPS horizontal/vertical accuracy (Def. 7): the minimum gap between two
  * distinct x- (resp. y-) coordinates of rectangle edges. Bounded below by
  * the positioning resolution, so the paper treats it as a constant; the
  * drop condition (Def. 8) compares cell sizes against it.
  */
object Accuracy {

  /** (ΔX, ΔY) of collected rectangles; +∞ on an axis with fewer than two
    * distinct edge coordinates.
    */
  def ofLocal(lr: LocalRects): (Double, Double) = {
    def gap(a: Array[Double], b: Array[Double]): Double = {
      val xs = (a ++ b).distinct.sorted
      if (xs.length < 2) Double.PositiveInfinity
      else xs.sliding(2).map(p => p(1) - p(0)).min
    }
    (gap(lr.xlo, lr.xhi), gap(lr.ylo, lr.yhi))
  }
}
