package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestSeries
import repro.climate.ClimateData

/** SlidingNetwork must, after every ingest, report exactly the direct
  * Pearson correlations of the last n_s·B raw points of every pair.
  */
class SlidingNetworkSpec extends AnyFunSuite {

  private val tol = 1e-8

  private def windowsOf(data: Array[Array[Double]], b: Int, w: Int): Array[Array[Double]] =
    data.map(s => java.util.Arrays.copyOfRange(s, w * b, (w + 1) * b))

  for ((n, b, nWin) <- Seq((3, 8, 3), (5, 10, 4), (8, 5, 6))) {
    test(s"matrix equals direct Pearson after every ingest (n=$n B=$b n_s=$nWin)") {
      val totalWin = nWin + 4
      val data = ClimateData.series(n, totalWin * b, seed = 11L * n + b)
      val net = new SlidingNetwork(n, nWin)
      for (w <- 0 until totalWin) {
        net.ingest(windowsOf(data, b, w))
        val lo = math.max(0, (w + 1) * b - nWin * b)
        val hi = (w + 1) * b
        val m = net.matrix()
        for (i <- 0 until n; j <- i + 1 until n) {
          val expect = TestSeries.refPearson(
            data(i).slice(lo, hi), data(j).slice(lo, hi))
          assert(math.abs(m(i)(j) - expect) < tol, s"window $w pair ($i,$j)")
          assert(m(i)(j) == m(j)(i))
        }
      }
    }
  }

  test("full flag flips once n_s windows arrived") {
    val data = ClimateData.series(3, 40, 1L)
    val net = new SlidingNetwork(3, 3)
    assert(!net.full && net.size == 0)
    net.ingest(windowsOf(data, 10, 0))
    assert(!net.full && net.size == 1)
    net.ingest(windowsOf(data, 10, 1))
    net.ingest(windowsOf(data, 10, 2))
    assert(net.full && net.size == 3)
    net.ingest(windowsOf(data, 10, 3))
    assert(net.full && net.size == 3) // sliding, not growing
  }

  test("pairIndex enumerates the upper triangle without collisions") {
    val net = new SlidingNetwork(7, 2)
    val idx = for (i <- 0 until 7; j <- i + 1 until 7) yield net.pairIndex(i, j)
    assert(idx.sorted == (0 until 21))
  }

  test("network thresholding matches Network.fromMatrix") {
    val data = ClimateData.series(5, 60, 3L)
    val net = new SlidingNetwork(5, 3)
    for (w <- 0 until 3) net.ingest(windowsOf(data, 20, w))
    val viaMatrix = Network.fromMatrix(net.matrix(), 0.5)
    assert(net.network(0.5).edges == viaMatrix.edges)
  }

  test("mismatched window counts rejected") {
    val net = new SlidingNetwork(3, 2)
    intercept[IllegalArgumentException](net.ingest(Array(Array(1.0), Array(2.0))))
  }

  test("unequal window lengths rejected") {
    val net = new SlidingNetwork(2, 2)
    intercept[IllegalArgumentException](net.ingest(Array(Array(1.0, 2.0), Array(3.0))))
  }

  test("corr before any ingest rejected") {
    val net = new SlidingNetwork(2, 2)
    intercept[IllegalArgumentException](net.corr(0, 1))
  }

  test("matrix and network before any ingest rejected") {
    val net = new SlidingNetwork(3, 2)
    intercept[IllegalArgumentException](net.matrix())
    intercept[IllegalArgumentException](net.network(0.5))
  }

  /** Ingest `batches` (one window per series each, sizes may change
    * between batches) and check every pair after every ingest against
    * the centred direct Pearson of the last n_s windows' raw points.
    */
  private def checkAgainstDirect(net: SlidingNetwork, batches: Seq[Array[Array[Double]]], tol: Double): Unit =
    for (k <- batches.indices) {
      net.ingest(batches(k))
      val held = batches.slice(math.max(0, k + 1 - net.nWindows), k + 1)
      val raw = Array.tabulate(net.nSeries)(i => held.flatMap(_(i)).toArray)
      for (i <- 0 until net.nSeries; j <- i + 1 until net.nSeries) {
        val expect = TestSeries.centredPearson(raw(i), raw(j))
        assert(math.abs(net.corr(i, j) - expect) < tol, s"ingest $k pair ($i,$j): ${net.corr(i, j)} vs $expect")
      }
    }

  private def batchesOf(data: Array[Array[Double]], sizes: Seq[Int]): Seq[Array[Array[Double]]] = {
    val offs = sizes.scanLeft(0)(_ + _)
    sizes.indices.map(k => data.map(s => java.util.Arrays.copyOfRange(s, offs(k), offs(k + 1))))
  }

  test("n_s = 1: every ingest evicts and appends") {
    val data = ClimateData.series(6, 12 * 15, 21L)
    checkAgainstDirect(new SlidingNetwork(6, 1), batchesOf(data, Seq.fill(12)(15)), 1e-9)
  }

  for (nWin <- Seq(1, 3, 5)) {
    test(s"window sizes that change between ingests (Lemma 2's T' form, n_s=$nWin)") {
      val r = new scala.util.Random(31 + nWin)
      val sizes = Seq.fill(nWin + 10)(3 + r.nextInt(20))
      val data = ClimateData.series(5, sizes.sum, 32L + nWin)
      checkAgainstDirect(new SlidingNetwork(5, nWin), batchesOf(data, sizes), 1e-9)
    }
  }

  test("a constant series' row is exactly 0") {
    val b = 10; val nWin = 3
    val data = ClimateData.series(5, 8 * b, 41L)
    data(2) = TestSeries.constant(8 * b, 3.0)
    val net = new SlidingNetwork(5, nWin)
    for (batch <- batchesOf(data, Seq.fill(8)(b))) {
      net.ingest(batch)
      val m = net.matrix()
      for (j <- 0 until 5 if j != 2) assert(m(2)(j) == 0.0 && m(j)(2) == 0.0, s"pair (2,$j)")
    }
  }

  for (offset <- Seq(1e4, 1e5, 1e6, 1e7)) {
    test(s"offset $offset: matches centred direct Pearson") {
      val data = ClimateData.series(5, 14 * 12, 51L).map(_.map(_ + offset))
      checkAgainstDirect(new SlidingNetwork(5, 4), batchesOf(data, Seq.fill(14)(12)), 1e-8)
    }
  }

  test("network(θ) equals Network.fromMatrix(matrix(), θ) at every θ") {
    val data = ClimateData.series(7, 6 * 15, 61L)
    data(3) = TestSeries.constant(6 * 15, 5.0)
    val net = new SlidingNetwork(7, 4)
    for (batch <- batchesOf(data, Seq.fill(6)(15))) {
      net.ingest(batch)
      for (theta <- Seq(-1.0, 0.0, 0.5, 0.99))
        assert(net.network(theta) == Network.fromMatrix(net.matrix(), theta), s"θ=$theta")
    }
  }

  for ((label, bad) <- Seq("NaN" -> Double.NaN, "+∞" -> Double.PositiveInfinity, "−∞" -> Double.NegativeInfinity)) {
    test(s"a window holding $label is rejected and leaves the state untouched") {
      val b = 8; val nWin = 3
      val data = ClimateData.series(4, 9 * b, 71L)
      val batches = batchesOf(data, Seq.fill(9)(b))
      val clean = new SlidingNetwork(4, nWin)
      val seen = new SlidingNetwork(4, nWin)
      for (k <- batches.indices) {
        if (k == 1 || k == 5) { // once while growing, once while sliding
          val poisoned = batches(k).map(_.clone)
          poisoned(1)(3) = bad
          intercept[IllegalArgumentException](seen.ingest(poisoned))
        }
        clean.ingest(batches(k)); seen.ingest(batches(k))
        assert(seen.size == clean.size)
        for (i <- 0 until 4; j <- i + 1 until 4)
          assert(java.lang.Double.doubleToRawLongBits(seen.corr(i, j)) ==
            java.lang.Double.doubleToRawLongBits(clean.corr(i, j)), s"ingest $k pair ($i,$j)")
        assert(seen.network(0.0) == clean.network(0.0))
      }
    }
  }
}
