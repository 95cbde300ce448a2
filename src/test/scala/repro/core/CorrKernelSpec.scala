package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestSeries
import repro.climate.ClimateData

/** The c_j kernel against the independent power-sum reference: the Gram of
  * normalised windows, the co-moment form with and without sketches, and
  * the in-memory paths built on them.
  */
class CorrKernelSpec extends AnyFunSuite {

  private val tol = 1e-12

  /** Every entry point's c_j of two aligned windows. */
  private def kernelCorrs(x: Array[Double], y: Array[Double]): Seq[(String, Double)] = {
    val sx = WindowStats.of(x); val sy = WindowStats.of(y)
    val rows = new Array[Double](2 * x.length)
    CorrKernel.normalizeInto(x, 0, sx, rows, 0)
    CorrKernel.normalizeInto(y, 0, sy, rows, x.length)
    Seq("gram" -> CorrKernel.gram(rows, 2, x.length)(0),
      "corr with sketches" -> CorrKernel.corr(x, y, 0, sx, sy),
      "corr from raw" -> CorrKernel.corr(x, y, 0, x.length))
  }

  /** Values on a 2^-10 grid, so that adding an offset up to 1e7 is exact and
    * any error at large offsets is the kernel's own.
    */
  private def onGrid(xs: Array[Double]): Array[Double] = xs.map(v => math.rint(v * 1024) / 1024)

  for (offset <- Seq(1e4, 1e5, 1e6, 1e7); b <- Seq(10, 100)) {
    test(s"c_j at offset $offset matches the reference on unshifted data (B=$b)") {
      val (x0, y0) = TestSeries.correlatedPair(b, 17L + b, 0.6)
      val x = onGrid(x0); val y = onGrid(y0)
      val expect = TestSeries.refPearson(x, y)
      for ((name, c) <- kernelCorrs(x.map(_ + offset), y.map(_ - offset / 2)))
        assert(math.abs(c - expect) < tol, s"$name: $c vs $expect")
    }
  }

  test("a constant window on either side or both gives exactly 0") {
    val c = TestSeries.constant(40, 3.0); val g = TestSeries.gaussian(40, 5L)
    for ((x, y) <- Seq((c, g), (g, c), (c, TestSeries.constant(40, -7.5))); (name, v) <- kernelCorrs(x, y))
      assert(v == 0.0, s"$name")
  }

  test("a constant window normalises to the zero vector") {
    assert(CorrKernel.normalize(TestSeries.constant(8, 2.0), WindowStats.of(TestSeries.constant(8, 2.0)))
      .forall(_ == 0.0))
  }

  test("B = 1: every window is constant, so c_j is 0") {
    for ((name, v) <- kernelCorrs(Array(4.0), Array(-1.0))) assert(v == 0.0, s"$name")
  }

  test("B = 2 matches the reference: ±1 by the sign of the two steps") {
    val r = new scala.util.Random(2L)
    // steps of at least 0.5, so the power-sum reference does not cancel
    def window(): Array[Double] = {
      val x0 = r.nextGaussian() * 5; val step = (0.5 + 2 * r.nextDouble()) * (if (r.nextBoolean()) 1 else -1)
      Array(x0, x0 + step)
    }
    for (k <- 0 until 20) {
      val x = window(); val y = window()
      val expect = TestSeries.refPearson(x, y)
      assert(math.abs(math.abs(expect) - 1.0) < tol)
      for ((name, v) <- kernelCorrs(x, y)) assert(math.abs(v - expect) < tol, s"$name case $k")
    }
  }

  test("normalised windows have zero mean and unit norm") {
    val x = TestSeries.gaussian(50, 3L).map(_ * 4 + 9)
    val xh = CorrKernel.normalize(x, WindowStats.of(x))
    assert(math.abs(xh.sum) < tol && math.abs(xh.map(v => v * v).sum - 1.0) < tol)
  }

  test("gram covers every pair in pair-index order, whatever n mod 4") {
    for (n <- 2 to 9) {
      val b = 12
      val data = ClimateData.series(n, b, seed = 40L + n)
      val rows = new Array[Double](n * b)
      for (i <- 0 until n) CorrKernel.normalizeInto(data(i), 0, WindowStats.of(data(i)), rows, i * b)
      val g = CorrKernel.gram(rows, n, b)
      val expect = for (i <- 0 until n; j <- i + 1 until n) yield TestSeries.refPearson(data(i), data(j))
      assert(g.length == expect.length)
      g.indices.foreach(p => assert(math.abs(g(p) - expect(p)) < tol, s"n=$n pair $p"))
    }
  }

  test("pairCorrs matches pearson window by window") {
    for ((name, gen) <- TestSeries.families; b <- Seq(1, 2, 7, 25)) {
      val (x, y) = gen(103, 9L + b)
      val xs = BasicWindows.split(x, b); val ys = BasicWindows.split(y, b)
      val cs = BasicWindows.pairCorrs(x, y, b)
      assert(cs.length == xs.length, s"$name B=$b")
      cs.indices.foreach(w =>
        assert(math.abs(cs(w) - WindowStats.pearson(xs(w), ys(w))) < tol, s"$name B=$b window $w"))
    }
  }

  test("pairCorrs rejects series of different window counts") {
    intercept[IllegalArgumentException](BasicWindows.pairCorrs(new Array[Double](20), new Array[Double](10), 5))
  }

  test("SlidingNetwork keeps a constant series' row at 0") {
    val (n, b, nWin) = (5, 10, 3)
    val data = ClimateData.series(n, 8 * b, seed = 3L)
    data(2) = TestSeries.constant(8 * b, 12.5)
    val net = new SlidingNetwork(n, nWin)
    for (w <- 0 until 8) {
      net.ingest(data.map(s => java.util.Arrays.copyOfRange(s, w * b, (w + 1) * b)))
      val m = net.matrix()
      for (j <- 0 until n if j != 2) assert(m(2)(j) == 0.0 && m(j)(2) == 0.0, s"window $w series $j")
    }
  }
}
