package repro.dft

import org.scalatest.funsuite.AnyFunSuite
import repro.TestSeries
import repro.climate.ClimateData
import repro.core.{BasicWindows, SlidingNetwork, WindowStats}

class SlidingApproxNetworkSpec extends AnyFunSuite {

  private def windowsOf(data: Array[Array[Double]], b: Int, w: Int): Array[Array[Double]] =
    data.map(s => java.util.Arrays.copyOfRange(s, w * b, (w + 1) * b))

  test("with ALL coefficients the approx slide equals the exact slide") {
    val n = 4; val b = 12; val nWin = 3
    val data = ClimateData.series(n, b * 7, 21L)
    val exact = new SlidingNetwork(n, nWin)
    val approx = new SlidingApproxNetwork(n, nWin, nCoeff = b)
    for (w <- 0 until 7) {
      val batch = windowsOf(data, b, w)
      exact.ingest(batch); approx.ingest(batch)
      val me = exact.matrix(); val ma = approx.matrix()
      for (i <- 0 until n; j <- i + 1 until n)
        assert(math.abs(me(i)(j) - ma(i)(j)) < 1e-7, s"w=$w ($i,$j)")
    }
  }

  test("approx slide equals Equation-5 recomputation with the same coefficients") {
    val n = 3; val b = 16; val nWin = 4; val nc = 9
    val data = ClimateData.series(n, b * 8, 22L)
    val approx = new SlidingApproxNetwork(n, nWin, nc)
    for (w <- 0 until 8) {
      approx.ingest(windowsOf(data, b, w))
      if (w >= nWin - 1) {
        val lo = w + 1 - nWin
        for (i <- 0 until n; j <- i + 1 until n) {
          val xs = BasicWindows.split(data(i), b).slice(lo, w + 1)
          val ys = BasicWindows.split(data(j), b).slice(lo, w + 1)
          val dSq = xs.indices.map(k => ApproxCorrelation.windowDistSq(
            ApproxCorrelation.sketchWindow(xs(k)), ApproxCorrelation.sketchWindow(ys(k)), nc))
          val scratch = ApproxCorrelation.eq5Corr(
            xs.map(WindowStats.of).toIndexedSeq, ys.map(WindowStats.of).toIndexedSeq, dSq)
          assert(math.abs(approx.corr(i, j) - scratch) < 1e-7, s"w=$w ($i,$j)")
        }
      }
    }
  }

  test("approximate correlations stay close to exact on climate-like data") {
    val n = 4; val b = 32; val nWin = 3
    val data = ClimateData.series(n, b * 5, 23L)
    val exact = new SlidingNetwork(n, nWin)
    val approx = new SlidingApproxNetwork(n, nWin, nCoeff = (0.75 * b).toInt)
    for (w <- 0 until 5) {
      val batch = windowsOf(data, b, w)
      exact.ingest(batch); approx.ingest(batch)
    }
    val me = exact.matrix(); val ma = approx.matrix()
    val errs = for (i <- 0 until n; j <- i + 1 until n) yield math.abs(me(i)(j) - ma(i)(j))
    // 75% of coefficients: individual pairs can drift, the average error
    // must stay moderate (the bias the paper's Fig 5a quantifies)
    assert(errs.sum / errs.size < 0.3, s"mean error ${errs.sum / errs.size}")
    assert(errs.max < 0.8, s"max error ${errs.max}")
  }

  test("coefficient count above window size rejected") {
    val net = new SlidingApproxNetwork(2, 2, nCoeff = 50)
    intercept[IllegalArgumentException](net.ingest(Array(Array.fill(10)(1.0), Array.fill(10)(2.0))))
  }

  test("pairs outside i < j are rejected, not aliased onto another pair") {
    val n = 4; val b = 8
    val approx = new SlidingApproxNetwork(n, 2, b)
    approx.ingest(windowsOf(ClimateData.series(n, b, 25L), b, 0))
    intercept[IllegalArgumentException](approx.corr(1, 0))
    intercept[IllegalArgumentException](approx.corr(2, 2))
    intercept[IllegalArgumentException](approx.corr(0, n))
  }

  test("corr before any window is ingested is rejected") {
    val approx = new SlidingApproxNetwork(3, 2, 4)
    intercept[IllegalArgumentException](approx.corr(0, 1))
  }

  test("network thresholding works on the approx matrix") {
    val n = 4; val b = 20
    val data = ClimateData.series(n, b * 3, 24L)
    val approx = new SlidingApproxNetwork(n, 3, b)
    for (w <- 0 until 3) approx.ingest(windowsOf(data, b, w))
    val net = approx.network(0.0)
    assert(net.nNodes == n)
    assert(net.edges.forall(e => e._3 > 0.0))
  }
}
