package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
)

// udpDrops reports the kernel's drop count for each of the soak's own
// UDP sockets, from the drops column of /proc/net/udp and /proc/net/udp6
// (only read). When the datagram leg loses more than its budget, this
// says whether the loss happened in the socket's receive buffer, before
// the reassembler ever saw the packets.
func udpDrops(addrs ...net.Addr) string {
	ports := map[int]bool{}
	for _, a := range addrs {
		if u, ok := a.(*net.UDPAddr); ok {
			ports[u.Port] = true
		}
	}
	var found []string
	for _, path := range []string{"/proc/net/udp", "/proc/net/udp6"} {
		f, err := os.Open(path)
		if err != nil {
			found = append(found, fmt.Sprintf("%s: %v", path, err))
			continue
		}
		found = append(found, socketDrops(f, ports)...)
		f.Close()
	}
	if len(found) == 0 {
		return "kernel UDP drops: none of the soak's sockets listed"
	}
	return "kernel UDP drops: " + strings.Join(found, ", ")
}

// socketDrops reads one /proc/net/udp-format table and returns
// "port P drops N" for every socket whose local port is in ports.
func socketDrops(r io.Reader, ports map[int]bool) []string {
	var out []string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		// sl local_address rem_address st tx_queue:rx_queue tr:tm->when
		// retrnsmt uid timeout inode ref pointer drops
		if len(f) < 13 || f[0] == "sl" {
			continue
		}
		colon := strings.LastIndexByte(f[1], ':')
		port, err := strconv.ParseInt(f[1][colon+1:], 16, 32)
		if colon < 0 || err != nil || !ports[int(port)] {
			continue
		}
		out = append(out, fmt.Sprintf("port %d drops %s", port, f[12]))
	}
	return out
}
